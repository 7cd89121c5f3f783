package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"predis/internal/simnet"
	"predis/internal/wire"
)

// NodeSample is one node's NIC state over one sampling interval.
type NodeSample struct {
	Node wire.NodeID
	// UpUtil and DownUtil are the fraction of the interval each NIC spent
	// serializing. Values can transiently exceed 1: the simulator reserves
	// serialization time ahead when a burst queues, and the busy-time delta
	// lands in the interval the burst was sent.
	UpUtil, DownUtil float64
	// SentBytes and RecvBytes are the bytes serialized out of / into the
	// node during the interval.
	SentBytes, RecvBytes uint64
}

// Sample is one periodic observation of the whole network.
type Sample struct {
	At time.Time
	// QueueLen is the instantaneous event-queue depth (pending timers and
	// in-flight messages).
	QueueLen int
	// Delivered and SentBytes are deltas over the interval.
	Delivered uint64
	SentBytes uint64
	// Nodes holds per-node NIC samples in ascending node-ID order.
	Nodes []NodeSample
}

// Sampler periodically reads NIC busy time, per-node byte counters, and
// event-queue depth from a simnet.Network, and sums the bytes delivered on
// every directed link. Sampling is purely passive —
// the tick callbacks read state and never send, so an instrumented run
// delivers exactly the same messages as an uninstrumented one (sampler
// events do change event sequence numbers, but sequence numbers only
// tie-break events scheduled at the same instant in scheduling order,
// which sampling preserves).
//
// Ticks are pre-scheduled by Start for a bounded horizon so that
// RunUntilIdle-style draining still terminates.
type Sampler struct {
	net      *simnet.Network
	interval time.Duration

	samples []Sample
	// Per-node previous readings, indexed by the network's dense node
	// index (simnet interns IDs at registration), so the per-tick sweep is
	// a flat-array walk instead of four map lookups per node. Grown lazily
	// on each tick since nodes may register after the sampler is built.
	lastUp   []time.Duration
	lastDown []time.Duration
	lastSent []uint64
	lastRecv []uint64

	lastDelivered uint64
	lastBytes     uint64

	// links sums delivered wire bytes per directed link (see WriteLinkCSV).
	links map[link]uint64
}

// link is one directed sender→receiver pair.
type link struct{ from, to wire.NodeID }

// NewSampler builds a sampler over net. interval is the sampling period.
func NewSampler(net *simnet.Network, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &Sampler{
		net:      net,
		interval: interval,
	}
}

// Start schedules sampling ticks at every interval boundary in (0, horizon]
// (horizon measured from the simulation epoch) and starts counting link
// bytes from the network's delivery hook, chaining any hook already
// present. All ticks are scheduled up front, so the sampler never keeps an
// idle network alive.
func (s *Sampler) Start(horizon time.Duration) {
	if s == nil {
		return
	}
	for at := s.interval; at <= horizon; at += s.interval {
		s.net.At(at, s.tick)
	}
	s.links = make(map[link]uint64)
	prev := s.net.OnDeliver
	s.net.OnDeliver = func(from, to wire.NodeID, m wire.Message, at time.Time) {
		s.links[link{from, to}] += uint64(m.WireSize())
		if prev != nil {
			prev(from, to, m, at)
		}
	}
}

// tick records one sample. The sweep walks the network's dense node
// table in ascending-ID order via the memoized index permutation, so a
// 10⁴-node population costs one flat-slice pass, not 4n map lookups.
func (s *Sampler) tick() {
	now := s.net.Now()
	order := s.net.SortedIndexes()
	if n := s.net.NodeCount(); len(s.lastUp) < n {
		s.lastUp = append(s.lastUp, make([]time.Duration, n-len(s.lastUp))...)
		s.lastDown = append(s.lastDown, make([]time.Duration, n-len(s.lastDown))...)
		s.lastSent = append(s.lastSent, make([]uint64, n-len(s.lastSent))...)
		s.lastRecv = append(s.lastRecv, make([]uint64, n-len(s.lastRecv))...)
	}
	sm := Sample{
		At:        now,
		QueueLen:  s.net.QueueLen(),
		Delivered: s.net.Delivered() - s.lastDelivered,
		SentBytes: s.net.BytesSent() - s.lastBytes,
		Nodes:     make([]NodeSample, 0, len(order)),
	}
	s.lastDelivered = s.net.Delivered()
	s.lastBytes = s.net.BytesSent()
	iv := float64(s.interval)
	for _, idx := range order {
		id, up, down, sent, recv := s.net.NodeStatsAt(idx)
		ns := NodeSample{
			Node:      id,
			UpUtil:    float64(up-s.lastUp[idx]) / iv,
			DownUtil:  float64(down-s.lastDown[idx]) / iv,
			SentBytes: sent - s.lastSent[idx],
			RecvBytes: recv - s.lastRecv[idx],
		}
		s.lastUp[idx] = up
		s.lastDown[idx] = down
		s.lastSent[idx] = sent
		s.lastRecv[idx] = recv
		sm.Nodes = append(sm.Nodes, ns)
	}
	s.samples = append(s.samples, sm)
}

// Samples returns every recorded sample in time order. Callers must not
// mutate the returned slice.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	return s.samples
}

// WriteLinkCSV dumps the cumulative bytes delivered on each directed link
// since Start as `from,to,bytes`, one row per link that delivered traffic,
// in ascending (from, to) order. It counts what reached a handler, not what
// was put on the wire: messages the network dropped (partitioned, filtered,
// to or from a crashed node, undecodable) are not in it.
func (s *Sampler) WriteLinkCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "from,to,bytes\n"); err != nil {
		return err
	}
	if s == nil {
		return nil
	}
	keys := make([]link, 0, len(s.links))
	for l := range s.links {
		keys = append(keys, l)
	}
	slices.SortFunc(keys, func(a, b link) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	})
	for _, l := range keys {
		if _, err := fmt.Fprintf(w, "%d,%d,%d\n", l.from, l.to, s.links[l]); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV dumps one row per (tick, node):
// `t_ms,node,up_util,down_util,sent_bytes,recv_bytes,queue_len` with the
// simulation-wide fields repeated on a node of "-" per tick.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "t_ms,node,up_util,down_util,sent_bytes,recv_bytes,queue_len\n"); err != nil {
		return err
	}
	if s == nil {
		return nil
	}
	epoch := simnet.Epoch
	for _, sm := range s.samples {
		t := formatFloat(durMS(sm.At.Sub(epoch)))
		if _, err := fmt.Fprintf(w, "%s,-,,,%d,,%d\n", t, sm.SentBytes, sm.QueueLen); err != nil {
			return err
		}
		for _, ns := range sm.Nodes {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%d,%d,\n",
				t, strconv.FormatUint(uint64(ns.Node), 10),
				formatFloat(ns.UpUtil), formatFloat(ns.DownUtil),
				ns.SentBytes, ns.RecvBytes); err != nil {
				return err
			}
		}
	}
	return nil
}
