package main

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"time"

	"predis/internal/compute"
	"predis/internal/env"
	"predis/internal/wire"
)

// nodeRole is the part a node plays in the deployment.
type nodeRole uint8

const (
	roleHost nodeRole = iota
	roleFull
	roleClient
)

// ownLayer is where everything a full node or a client does is booked;
// a host's callbacks are split further (receiveLayer, timerLayerOf).
func (r nodeRole) ownLayer() layer {
	switch r {
	case roleFull:
		return layerFullNode
	case roleClient:
		return layerWorkload
	}
	return layerOther
}

// layer is where a host-clock span's time is booked. Spans never nest
// (simnet runs one handler callback at a time), so a layer's self time
// is the sum of its spans and simnet's is the run's wall time minus all
// of them.
type layer uint8

const (
	layerCore layer = iota
	layerConsensus
	layerDist
	layerFullNode
	layerWorkload
	layerOther
	numLayers
)

var layerNames = [numLayers]string{"core", "consensus", "multizone.dist", "multizone.fullnode", "workload", "other"}

// spanKind says what callback a span timed.
type spanKind uint8

const (
	kindStart spanKind = iota
	kindReceive
	kindTimer
	kindRestart
)

var kindNames = [...]string{"start", "receive", "timer", "restart"}

// span is one handler callback on the host clock. parent is the span
// during which the message was sent or the timer armed (-1: none).
type span struct {
	start, end int64 // ns since the recorder's origin
	node       wire.NodeID
	parent     int32
	layer      layer
	kind       spanKind
	msgType    wire.Type // kindReceive only
}

const spanChunk = 1 << 16

// sendKey identifies a message in flight by its sender and pointer: a
// multicast is one entry, a relayer's forward of the same pointer
// another.
type sendKey struct {
	from wire.NodeID
	m    wire.Message
}

// sentRotate is how many spans one generation of the in-flight map
// lives for; a message is delivered long before two generations pass.
const sentRotate = 1 << 17

// spanRecorder is the benchmark's own tracer: it decorates every
// env.Handler before net.AddNode and records one span per Start,
// Receive, timer and restart callback. A nil recorder wraps nothing.
type spanRecorder struct {
	origin time.Time
	chunks [][]span
	n      int32
	cur    int32 // open span, -1 between callbacks
	// sent maps an in-flight message to the span that sent it. Entries
	// are never deleted (other recipients may still be waiting); instead
	// the map is swapped for a fresh one every sentRotate spans and the
	// previous generation kept for lookups.
	sent, sentOld map[sendKey]int32
	lastSent      sendKey
	lastSentSpan  int32
	// timerLayer caches the layer of a timer callback's code pointer.
	timerLayer map[uintptr]layer
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{
		origin:     time.Now(),
		cur:        -1,
		timerLayer: make(map[uintptr]layer),
	}
}

func (r *spanRecorder) at(i int32) *span { return &r.chunks[i/spanChunk][i%spanChunk] }

func (r *spanRecorder) begin(node wire.NodeID, l layer, k spanKind, t wire.Type, parent int32) {
	if int(r.n)%spanChunk == 0 {
		r.chunks = append(r.chunks, make([]span, spanChunk))
	}
	if int(r.n)%sentRotate == 0 {
		r.sentOld, r.sent = r.sent, make(map[sendKey]int32)
	}
	r.cur = r.n
	r.n++
	*r.at(r.cur) = span{
		start: int64(time.Since(r.origin)), node: node, parent: parent,
		layer: l, kind: k, msgType: t,
	}
}

// noteSend records that the open span sent m; the repeated sends of a
// multicast loop cost one comparison each.
func (r *spanRecorder) noteSend(from wire.NodeID, m wire.Message) {
	key := sendKey{from, m}
	if key == r.lastSent && r.cur == r.lastSentSpan {
		return
	}
	r.lastSent, r.lastSentSpan = key, r.cur
	r.sent[key] = r.cur
}

// sender returns the span that sent m from the given node (-1: unknown).
func (r *spanRecorder) sender(from wire.NodeID, m wire.Message) int32 {
	key := sendKey{from, m}
	if s, ok := r.sent[key]; ok {
		return s
	}
	if s, ok := r.sentOld[key]; ok {
		return s
	}
	return -1
}

func (r *spanRecorder) end() {
	r.at(r.cur).end = int64(time.Since(r.origin))
	r.cur = -1
}

// receiveLayer books a delivered message by the receiver's role and the
// message's wire type range.
func receiveLayer(role nodeRole, t wire.Type) layer {
	if role != roleHost {
		return role.ownLayer()
	}
	switch t & 0xff00 {
	case wire.TypeRangeCore, wire.TypeRangeClient:
		return layerCore
	case wire.TypeRangePBFT, wire.TypeRangeHotStuff:
		return layerConsensus
	case wire.TypeRangeZone:
		return layerDist
	}
	return layerOther
}

// timerLayerOf books a host timer by the package that declared its
// callback (the bundle-seal tick is core's, view timers the engine's);
// full-node and client timers go to their role's layer.
func (r *spanRecorder) timerLayerOf(role nodeRole, fn func()) layer {
	if role != roleHost {
		return role.ownLayer()
	}
	pc := reflect.ValueOf(fn).Pointer()
	if l, ok := r.timerLayer[pc]; ok {
		return l
	}
	l := layerOther
	name := runtime.FuncForPC(pc).Name()
	switch {
	case strings.Contains(name, "/internal/core."):
		l = layerCore
	case strings.Contains(name, "/internal/pbft."), strings.Contains(name, "/internal/hotstuff."):
		l = layerConsensus
	case strings.Contains(name, "/internal/multizone."):
		l = layerDist
	}
	r.timerLayer[pc] = l
	return l
}

// wrap decorates h; the result implements env.Restartable exactly when
// h does, so simnet's restart scheduling is unchanged.
func (r *spanRecorder) wrap(role nodeRole, h env.Handler) env.Handler {
	if r == nil {
		return h
	}
	t := &tracedHandler{rec: r, role: role, inner: h}
	if _, ok := h.(env.Restartable); ok {
		return &tracedRestartable{t}
	}
	return t
}

type tracedHandler struct {
	rec   *spanRecorder
	role  nodeRole
	inner env.Handler
	id    wire.NodeID
}

func (t *tracedHandler) Start(ctx env.Context) {
	t.id = ctx.ID()
	t.rec.begin(t.id, t.role.ownLayer(), kindStart, 0, -1)
	t.inner.Start(&tracedCtx{Context: ctx, h: t})
	t.rec.end()
}

func (t *tracedHandler) Receive(from wire.NodeID, m wire.Message) {
	t.rec.begin(t.id, receiveLayer(t.role, m.Type()), kindReceive, m.Type(), t.rec.sender(from, m))
	t.inner.Receive(from, m)
	t.rec.end()
}

type tracedRestartable struct{ *tracedHandler }

func (t *tracedRestartable) OnRestart() {
	t.rec.begin(t.id, layerOther, kindRestart, 0, -1)
	t.inner.(env.Restartable).OnRestart()
	t.rec.end()
}

// tracedCtx is the env.Context handed down to the wrapped handler, so
// its sends and timers are seen: Send notes the sending span, After
// wraps the callback in a span of its own.
type tracedCtx struct {
	env.Context
	h *tracedHandler
}

func (c *tracedCtx) Send(to wire.NodeID, m wire.Message) {
	c.h.rec.noteSend(c.h.id, m)
	c.Context.Send(to, m)
}

func (c *tracedCtx) After(d time.Duration, fn func()) env.Timer {
	rec := c.h.rec
	parent := rec.cur
	l := rec.timerLayerOf(c.h.role, fn)
	return c.Context.After(d, func() {
		rec.begin(c.h.id, l, kindTimer, 0, parent)
		fn()
		rec.end()
	})
}

// ComputePool forwards compute.PoolProvider, which handlers discover by
// type assertion on the context.
func (c *tracedCtx) ComputePool() *compute.Pool { return compute.PoolOf(c.Context) }

// layerSplit is the aggregate of one traced run.
type layerSplit struct {
	ns    [numLayers]float64
	calls [numLayers]float64
	// consensusMsgs counts PBFT/HotStuff-range deliveries to hosts.
	consensusMsgs float64
	total         float64 // Σ ns
}

func (r *spanRecorder) split() layerSplit {
	var s layerSplit
	for i := int32(0); i < r.n; i++ {
		sp := r.at(i)
		d := float64(sp.end - sp.start)
		s.ns[sp.layer] += d
		s.calls[sp.layer]++
		s.total += d
		if sp.kind == kindReceive && sp.layer == layerConsensus {
			s.consensusMsgs++
		}
	}
	return s
}

// writeChrome emits the spans as Chrome trace-event JSON ("X" events,
// one row per node; args carry the parent span's index).
func (r *spanRecorder) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "[")
	for i := int32(0); i < r.n; i++ {
		sp := r.at(i)
		name := layerNames[sp.layer] + "." + kindNames[sp.kind]
		if sp.kind == kindReceive {
			name = layerNames[sp.layer] + "." + wire.TypeName(sp.msgType)
		}
		if i > 0 {
			fmt.Fprint(bw, ",\n")
		}
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			name, sp.node, float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3, i, sp.parent)
	}
	fmt.Fprint(bw, "]\n")
	return bw.Flush()
}
