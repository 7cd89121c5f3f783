// Package simnet is a deterministic discrete-event network simulator.
//
// It substitutes for the paper's Alibaba ECS testbed (§V): every node has an
// uplink and a downlink with finite bandwidth, every pair of nodes has a
// propagation latency, and a message is timed in two stages:
//
//	sendStart = max(now, uplink free)            sendEnd = sendStart + size/uplink
//	recvStart = max(sendStart + latency, downlink free)   — decided on arrival
//	delivery  = max(recvStart + size/downlink, sendEnd + latency)
//
// with cut-through pipelining (bits arrive `latency` after they leave, and
// both NICs are occupied for their serialization time). Since every figure
// in the paper is a function of exactly bandwidth contention and propagation
// latency, this model preserves the shapes the evaluation reports while
// running in fast, fully deterministic virtual time.
//
// The simulator executes protocol handlers (env.Handler) inline on a single
// goroutine in timestamp order, so runs are reproducible bit-for-bit given
// the same seed.
//
// # NIC model
//
// The downlink is a FIFO in arrival order: Send schedules the first bit's
// arrival at sendStart + latency and the receiver's downlink is reserved
// when that event runs, behind whatever arrived before it. The link is
// therefore work-conserving — it never idles while a frame that has reached
// it waits — whatever order the sends were issued in and however far away
// each sender is.
//
// The uplink has two queues. A frame for which wire.LaneFrame holds (a
// small PBFT or HotStuff message — a vote, a metadata-only proposal — or a
// Predis block on its way to full nodes) takes the consensus lane: it
// starts at max(now, lane free), serializes against other lane frames
// only, and pushes the bulk clock back by its own serialization time, so
// bulk sent afterwards pays for it. Everything else is bulk and queues
// FIFO as before. This approximates a NIC that interleaves the two queues
// packet by packet; bulk frames already reserved keep their slots, so for
// the length of the queued burst the link carries the lane frame's bytes
// on top — an over-commit bounded by the lane's share of the uplink's
// bytes (LaneStats.MaxShare: 1.4 % on predis-perf's wan16_ladder). An
// uplink that carries little besides Predis blocks — a full node forwarding
// them to its subscribers — has most of its bytes on the lane, and little
// bulk queued for them to overtake (84 % on fanout_lan). The downlink has
// no lane: no application controls the order in which other machines'
// bytes reach it.
//
// # Dense node indexing
//
// wire.NodeIDs are sparse (consensus nodes at 0.., full nodes at 100..,
// clients at 1000..), so the simulator interns every ID to a dense int32
// index at registration. All per-node hot-path state — the node table and
// the crashed set (a bitset) — is indexed by that dense index, so a
// 10⁴–10⁵-node population costs flat arrays, not hash lookups, on every
// Send/dispatch. The simulator keeps no per-link state: a reader that
// wants per-link bytes sums them from OnDeliver (obs.Sampler does).
//
// # Send accounting
//
// Send applies one uniform charging policy: whenever a live (non-crashed)
// sender serializes a message, the sender's uplink busy time and the byte
// counters (global BytesSent, per-node) are charged — regardless
// of whether the message is later dropped, because a sender cannot know
// the packet will die. Crashed senders emit nothing and are charged
// nothing. Every charged message either reaches a handler (counted by
// Delivered) or increments exactly one cause in Dropped(): Unknown
// (unregistered destination), Crashed (receiver dead at send time or when
// the first bit arrives, or either endpoint dead at delivery time),
// Partitioned, Filtered (the drop filter, through which package faults also
// loses messages at random) or Undecodable. So after the network quiesces,
//
//	Sends() == Delivered() + Dropped().Total()
//
// holds as an invariant. Downlink busy time and per-node receive bytes are
// charged when the first bit arrives at a live receiver (i.e. only for
// messages that survive the send-time drop checks and find the NIC up); a
// receiver that crashes between arrival and delivery keeps the charge.
package simnet

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"predis/internal/compute"
	"predis/internal/env"
	"predis/internal/wire"
)

// Epoch is the virtual time at which every simulation starts.
var Epoch = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

// Bandwidth is a link rate in bytes per second.
type Bandwidth float64

// Common rates. The paper's testbed uses 100 Mbps instances.
const (
	Mbps100 Bandwidth = 100e6 / 8
	Mbps50  Bandwidth = 50e6 / 8
	Gbps1   Bandwidth = 1e9 / 8
)

// Config parameterizes a Network.
type Config struct {
	// Uplink and Downlink are the default per-node NIC rates in bytes/s.
	// Zero means unlimited (infinite bandwidth).
	Uplink, Downlink Bandwidth
	// Latency returns one-way propagation delay between two distinct
	// nodes. Nil means zero latency everywhere.
	Latency func(from, to wire.NodeID) time.Duration
	// Seed drives all per-node random sources.
	Seed int64
	// CopyOnDeliver marshals and unmarshals every message on delivery.
	// Slower, but catches codec bugs and accidental aliasing between
	// sender and receiver state; tests enable it.
	CopyOnDeliver bool
	// Compute is read by no layer: it is held for cmd/predis-perf, which
	// is frozen outside a benchmark PR, and goes with the compute shell
	// (see package compute).
	Compute *compute.Pool
	// LogWriter receives Logf output when non-nil.
	LogWriter io.Writer
}

// UniformLatency returns a latency function with constant one-way delay.
func UniformLatency(d time.Duration) func(from, to wire.NodeID) time.Duration {
	return func(from, to wire.NodeID) time.Duration { return d }
}

// DropCounts tallies messages dropped by the network, split by cause.
// Exactly one cause is charged per dropped message.
type DropCounts struct {
	// Unknown counts sends to destinations that were never registered.
	Unknown uint64
	// Crashed counts messages whose receiver was crashed at send time or at
	// first-bit arrival, or whose sender or receiver crashed while the
	// message was in flight.
	Crashed uint64
	// Partitioned counts messages dropped by the partition filter.
	Partitioned uint64
	// Filtered counts messages dropped by the message-level drop filter.
	Filtered uint64
	// Undecodable counts messages whose wire frame failed to decode at the
	// receiver. A real runtime cannot hand a handler a frame it cannot
	// parse, so a garbage frame degrades to a counted drop, never a panic.
	Undecodable uint64
}

// Total returns the sum over all causes.
func (d DropCounts) Total() uint64 {
	return d.Unknown + d.Crashed + d.Partitioned + d.Filtered + d.Undecodable
}

// noIndex is the dense-index sentinel for "no node" (Network.At events).
const noIndex int32 = -1

// Network is the simulator. It is not safe for concurrent use; drive it
// from one goroutine.
type Network struct {
	cfg Config
	// now mirrors nowNs (nanoseconds since Epoch); the int64 form is what
	// the event loop and NIC arithmetic use, the time.Time form is what
	// env.Context exposes. Both always describe the same instant.
	now   time.Time
	nowNs int64
	seq   uint64
	q     eventQueue

	// nodes is the dense node table (index = registration order); index
	// interns sparse wire.NodeIDs to dense indices; order memoizes the
	// ascending-ID permutation of indices (nil = stale, rebuilt lazily).
	nodes []*simNode
	index map[wire.NodeID]int32
	order []int32

	// timerSlab bump-allocates simTimer handles in blocks so After
	// amortizes to ~1/timerSlabSize allocations per call.
	timerSlab []simTimer

	// fault injection. crashed is a bitset over dense indices.
	crashed    bitset
	partition  func(from, to wire.NodeID) bool
	dropFilter func(from, to wire.NodeID, m wire.Message) bool
	mutator    func(from, to wire.NodeID, m wire.Message) wire.Message

	// sends counts Send calls by live senders; delivered counts messages
	// handed to handlers; drops splits the difference by cause; bytesSent
	// counts wire bytes charged to uplinks.
	sends     uint64
	delivered uint64
	drops     DropCounts
	bytesSent uint64

	// OnDeliver, when non-nil, observes every successful delivery just
	// before the handler runs. The harness uses it to measure propagation.
	OnDeliver func(from, to wire.NodeID, m wire.Message, at time.Time)
}

type simNode struct {
	id  wire.NodeID
	idx int32
	net *Network
	// rng is built lazily on first Rand(): its seed depends only on the
	// node ID, so laziness is replay-invisible, and handlers that never
	// draw randomness (the common case at 10⁴⁺-node scale) skip the
	// ~5 KB source allocation entirely.
	rng      *rand.Rand
	handler  env.Handler
	up, down Bandwidth
	// upFree/downFree are the times (ns since Epoch) at which each NIC
	// finishes its currently reserved serialization work; laneFree is the
	// same clock for the uplink's consensus lane, which serializes only
	// against itself.
	upFree   int64
	laneFree int64
	downFree int64
	started  bool

	// cumulative NIC accounting (survives Restart — these are lifetime
	// counters, unlike the upFree/downFree reservations which reset).
	upBusy, downBusy   time.Duration
	bytesUp, bytesDown uint64
	// laneFrames/laneBytes are the part of bytesUp that took the consensus
	// lane.
	laneFrames, laneBytes uint64
}

var _ env.Context = (*simNode)(nil)

// New creates an empty network.
func New(cfg Config) *Network {
	return &Network{
		cfg:   cfg,
		now:   Epoch,
		index: make(map[wire.NodeID]int32),
	}
}

// Sends returns how many Send calls live senders have made (each is either
// delivered or counted in exactly one Dropped cause).
func (n *Network) Sends() uint64 { return n.sends }

// Dropped returns the per-cause drop counts accumulated so far.
func (n *Network) Dropped() DropCounts { return n.drops }

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.now }

// Elapsed returns virtual time since the epoch.
func (n *Network) Elapsed() time.Duration { return n.now.Sub(Epoch) }

// Delivered returns the number of messages delivered to handlers so far.
func (n *Network) Delivered() uint64 { return n.delivered }

// BytesSent returns total wire bytes charged to uplinks so far.
func (n *Network) BytesSent() uint64 { return n.bytesSent }

// QueueLen returns the number of events currently pending in the event
// heap (including canceled timers that have not been popped yet).
func (n *Network) QueueLen() int { return n.q.len() }

// NodeCount returns the number of registered nodes.
func (n *Network) NodeCount() int { return len(n.nodes) }

// Index interns a node ID to its dense index, reporting whether the ID is
// registered. Indices are stable for the lifetime of the network (crash,
// restart, and quarantine churn never move a node).
func (n *Network) Index(id wire.NodeID) (int32, bool) {
	idx, ok := n.index[id]
	return idx, ok
}

// SortedIndexes returns the dense indices of every registered node in
// ascending node-ID order. The slice is memoized and rebuilt only when a
// node is added; callers must not mutate it.
func (n *Network) SortedIndexes() []int32 {
	if n.order == nil {
		n.order = make([]int32, len(n.nodes))
		for i := range n.nodes {
			n.order[i] = int32(i)
		}
		sort.Slice(n.order, func(a, b int) bool {
			return n.nodes[n.order[a]].id < n.nodes[n.order[b]].id
		})
	}
	return n.order
}

// NodeIDs returns every registered node ID in ascending order.
func (n *Network) NodeIDs() []wire.NodeID {
	order := n.SortedIndexes()
	ids := make([]wire.NodeID, len(order))
	for i, idx := range order {
		ids[i] = n.nodes[idx].id
	}
	return ids
}

// NodeStatsAt returns the node ID and cumulative NIC counters of the node
// at dense index idx: uplink/downlink serialization busy time and bytes
// serialized out of / into the node. Index-addressed so samplers sweep
// large populations without a hash lookup per node.
func (n *Network) NodeStatsAt(idx int32) (id wire.NodeID, upBusy, downBusy time.Duration, bytesUp, bytesDown uint64) {
	sn := n.nodes[idx]
	return sn.id, sn.upBusy, sn.downBusy, sn.bytesUp, sn.bytesDown
}

// NICBusy returns the cumulative serialization busy time of a node's
// uplink and downlink NICs. Sampling the deltas between two calls yields
// link utilization over the interval (deltas can transiently exceed the
// interval length: busy time is reserved ahead when a burst queues).
func (n *Network) NICBusy(id wire.NodeID) (up, down time.Duration) {
	idx, ok := n.index[id]
	if !ok {
		return 0, 0
	}
	sn := n.nodes[idx]
	return sn.upBusy, sn.downBusy
}

// NodeBytes returns the cumulative wire bytes serialized out of (sent)
// and into (received) one node.
func (n *Network) NodeBytes(id wire.NodeID) (sent, received uint64) {
	idx, ok := n.index[id]
	if !ok {
		return 0, 0
	}
	sn := n.nodes[idx]
	return sn.bytesUp, sn.bytesDown
}

// LaneStats is the consensus lane's share of the traffic so far.
type LaneStats struct {
	// Frames and Bytes count what every uplink sent on its lane.
	Frames, Bytes uint64
	// MaxShare is the largest fraction of any one uplink's bytes that took
	// the lane. It bounds how far that uplink was over-committed: bulk
	// frames reserved before a lane frame keep their slots.
	MaxShare float64
}

// LaneStats sums the consensus-lane counters over every node.
func (n *Network) LaneStats() LaneStats {
	var st LaneStats
	for _, sn := range n.nodes {
		if sn.laneBytes == 0 {
			continue
		}
		st.Frames += sn.laneFrames
		st.Bytes += sn.laneBytes
		if share := float64(sn.laneBytes) / float64(sn.bytesUp); share > st.MaxShare {
			st.MaxShare = share
		}
	}
	return st
}

// AddNode registers a handler under the given ID with the default NIC
// rates. It panics on duplicate IDs (a setup programming error).
func (n *Network) AddNode(id wire.NodeID, h env.Handler) {
	n.AddNodeRates(id, h, n.cfg.Uplink, n.cfg.Downlink)
}

// AddNodeRates registers a handler with explicit NIC rates (0 = unlimited).
func (n *Network) AddNodeRates(id wire.NodeID, h env.Handler, up, down Bandwidth) {
	if _, ok := n.index[id]; ok {
		panic(fmt.Sprintf("simnet: duplicate node %d", id))
	}
	idx := int32(len(n.nodes))
	sn := &simNode{
		id:       id,
		idx:      idx,
		net:      n,
		handler:  h,
		up:       up,
		down:     down,
		upFree:   n.nowNs,
		laneFree: n.nowNs,
		downFree: n.nowNs,
	}
	n.nodes = append(n.nodes, sn)
	n.index[id] = idx
	n.crashed.grow(len(n.nodes))
	n.order = nil // sorted-ID memo is stale
}

// Start invokes Start on every handler that has not started yet, in ID
// order for determinism. Call it after adding nodes and before Run.
func (n *Network) Start() {
	for _, idx := range n.SortedIndexes() {
		sn := n.nodes[idx]
		if !sn.started {
			sn.started = true
			sn.handler.Start(sn)
		}
	}
}

func sortNodeIDs(ids []wire.NodeID) {
	sortBy(ids, func(a, b wire.NodeID) bool { return a < b })
}

// setNow advances virtual time to ns nanoseconds after the epoch,
// keeping the time.Time mirror in sync.
func (n *Network) setNow(ns int64) {
	n.nowNs = ns
	n.now = Epoch.Add(time.Duration(ns))
}

// dispatch runs one popped (non-canceled) event. The event is still owned
// by the caller, which recycles it after dispatch returns.
//
//predis:hotpath
func (n *Network) dispatch(ev *event) {
	switch ev.kind {
	case evDeliver:
		n.deliver(ev)
	case evTimer:
		if !n.crashed.get(ev.nodeIdx) {
			ev.fn()
		}
	default:
		ev.fn()
	}
}

// arrive is the first-bit stage of a message: the receiver's downlink is
// reserved now, behind whatever arrived earlier, so the link serves frames
// in arrival order and never idles while one is waiting. It re-keys the
// event as the message's delivery and reports false if the receiver is
// down instead.
//
//predis:hotpath
func (n *Network) arrive(ev *event) bool {
	dst := ev.dst
	if n.crashed.get(dst.idx) {
		// A dead NIC receives nothing and is charged nothing.
		n.drops.Crashed++
		return false
	}
	recvStart := later(n.nowNs, dst.downFree)
	recvEnd := recvStart + int64(txTime(ev.size, dst.down))
	dst.downFree = recvEnd
	dst.downBusy += time.Duration(recvEnd - recvStart)
	dst.bytesDown += uint64(ev.size)
	// Cut-through: delivery waits for the downlink to finish and for the
	// sender's last bit to cross the wire, whichever is later.
	n.seq++
	ev.at = later(recvEnd, ev.lastBit)
	ev.seq = n.seq
	ev.kind = evDeliver
	return true
}

// deliver hands a fully received message to its handler.
//
//predis:hotpath
func (n *Network) deliver(ev *event) {
	if n.crashed.get(ev.dst.idx) || n.crashed.get(ev.src.idx) {
		// Sender or receiver died while the message was in flight.
		n.drops.Crashed++
		return
	}
	msg := ev.msg
	if d, ok := msg.(wire.Defective); ok && d.Defective() {
		// Undecodable frame: a real runtime drops it at the codec, so
		// the zero-copy fast path must never hand it to a handler.
		n.drops.Undecodable++
		return
	}
	if n.cfg.CopyOnDeliver {
		cp, err := wire.Roundtrip(msg)
		if err != nil {
			// Same degradation as the real runtime: count the drop and
			// move on. Panicking here would let one garbage frame kill
			// the whole simulation.
			n.drops.Undecodable++
			return
		}
		msg = cp
	}
	n.delivered++
	if n.OnDeliver != nil {
		n.OnDeliver(ev.src.id, ev.dst.id, msg, n.now)
	}
	ev.dst.handler.Receive(ev.src.id, msg)
}

// step runs the head event and reports whether it ran (a canceled event is
// only recycled). An arrival becomes its message's delivery in place: the
// same event is re-queued a transfer time ahead — one event per message in
// flight, no allocation and no free-list round trip.
//
//predis:hotpath
func (n *Network) step() (ran bool) {
	ev := n.q.head()
	if ev.kind == evArrive {
		n.setNow(ev.at)
		switch {
		case !n.arrive(ev):
			n.q.recycle(n.q.popHead())
		case ev.at > n.nowNs:
			n.q.fixHead()
		default:
			// Unlimited NICs: the frame is already in.
			n.q.popHead()
			n.deliver(ev)
			n.q.recycle(ev)
		}
		return true
	}
	n.q.popHead()
	ran = !ev.canceled
	if ran {
		n.setNow(ev.at)
		n.dispatch(ev)
	}
	n.q.recycle(ev)
	return ran
}

// Run processes events until the virtual deadline (relative to the epoch)
// passes or the event queue drains. It returns the number of events run.
//
//predis:hotpath
func (n *Network) Run(until time.Duration) int {
	deadline := int64(until)
	count := 0
	for n.q.len() > 0 {
		if n.q.head().at > deadline {
			n.setNow(deadline)
			return count
		}
		if n.step() {
			count++
		}
	}
	if n.nowNs < deadline {
		n.setNow(deadline)
	}
	return count
}

// RunUntilIdle processes every pending event regardless of time. It is
// useful for propagation-latency experiments that end when the network
// quiesces. maxEvents bounds runaway protocols; 0 means no bound.
//
//predis:hotpath
func (n *Network) RunUntilIdle(maxEvents int) int {
	count := 0
	for n.q.len() > 0 {
		if n.step() {
			count++
		}
		if maxEvents > 0 && count >= maxEvents {
			break
		}
	}
	return count
}

// schedule enqueues an event at ns nanoseconds after the epoch (clamped
// to now), taking a recycled event from the free list when one is
// available: in steady state scheduling allocates nothing. nodeIdx is the
// dense index of the owning node (noIndex for node-less events).
//
//predis:hotpath
func (n *Network) schedule(ns int64, nodeIdx int32, kind eventKind, fn func()) *event {
	if ns < n.nowNs {
		ns = n.nowNs
	}
	n.seq++
	ev := n.q.alloc()
	ev.at = ns
	ev.seq = n.seq
	ev.nodeIdx = nodeIdx
	ev.kind = kind
	ev.fn = fn
	n.q.push(ev)
	return ev
}

// Crash fail-stops a node: nothing is delivered to or from it anymore and
// its pending timers are suppressed. Crashing an unregistered node is a
// no-op.
func (n *Network) Crash(id wire.NodeID) {
	if idx, ok := n.index[id]; ok {
		n.crashed.set(idx)
	}
}

// Restart brings a crashed node back up. The crash flag is cleared, the
// node's NIC queues are reset (a rebooted machine does not inherit its
// pre-crash serialization backlog), and — if the handler implements
// env.Restartable — OnRestart is scheduled on the node's executor so the
// handler can re-arm timers and run its catch-up protocol. Handler state
// is otherwise untouched: this models a process restart that recovers its
// persistent state (ledger, keys) but has lost all in-flight timers and
// messages. Restarting a node that is not crashed is a no-op.
func (n *Network) Restart(id wire.NodeID) {
	idx, ok := n.index[id]
	if !ok || !n.crashed.get(idx) {
		return
	}
	n.crashed.clear(idx)
	sn := n.nodes[idx]
	sn.upFree = n.nowNs
	sn.laneFree = n.nowNs
	sn.downFree = n.nowNs
	if r, ok := sn.handler.(env.Restartable); ok {
		// evTimer dispatch already suppresses the callback if the node
		// re-crashed before the restart event ran.
		n.schedule(n.nowNs, idx, evTimer, r.OnRestart)
	}
}

// At schedules fn to run at virtual time d after the epoch (clamped to
// now if already past). It is the hook fault-injection scripts use to
// drive Crash/Restart/SetPartition/SetDropFilter at scripted times from
// within the event loop, keeping fault timing deterministic relative to
// protocol events. The callback runs on the simulator goroutine and is
// not tied to any node (it fires even if every node is crashed).
func (n *Network) At(d time.Duration, fn func()) {
	n.schedule(int64(d), noIndex, evGeneric, fn)
}

// Crashed reports whether a node is currently crashed.
func (n *Network) Crashed(id wire.NodeID) bool {
	idx, ok := n.index[id]
	return ok && n.crashed.get(idx)
}

// SetPartition installs a reachability filter; messages where fn returns
// true are dropped. Nil clears it.
func (n *Network) SetPartition(fn func(from, to wire.NodeID) bool) { n.partition = fn }

// SetDropFilter installs a message-level drop filter (for Byzantine
// omission experiments). Nil clears it.
func (n *Network) SetDropFilter(fn func(from, to wire.NodeID, m wire.Message) bool) {
	n.dropFilter = fn
}

// SetMutator installs a per-recipient message mutator (for Byzantine
// corruption experiments): it runs after the drop filters decide a message
// will be delivered and may substitute a different message for this
// recipient — returning nil or the original pointer leaves the message
// unchanged. Mutators must return a fresh copy rather than modify the
// original, because multicast hands the same pointer to every recipient.
// Nil clears it.
func (n *Network) SetMutator(fn func(from, to wire.NodeID, m wire.Message) wire.Message) {
	n.mutator = fn
}

// latency returns one-way delay from a to b.
func (n *Network) latency(from, to wire.NodeID) time.Duration {
	if n.cfg.Latency == nil || from == to {
		return 0
	}
	return n.cfg.Latency(from, to)
}

// --- env.Context implementation (per node) ---

// ID implements env.Context.
func (s *simNode) ID() wire.NodeID { return s.id }

// Now implements env.Context.
func (s *simNode) Now() time.Time { return s.net.now }

// Rand implements env.Context. The source is built on first use; its seed
// depends only on the node ID, so call-order laziness never changes a
// draw sequence.
func (s *simNode) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.net.cfg.Seed ^ (int64(s.id)+1)*0x5851f42d4c957f2d))
	}
	return s.rng
}

// ComputePool implements compute.PoolProvider for cmd/predis-perf.
func (s *simNode) ComputePool() *compute.Pool { return s.net.cfg.Compute }

// Logf implements env.Context.
func (s *simNode) Logf(format string, args ...any) {
	if w := s.net.cfg.LogWriter; w != nil {
		fmt.Fprintf(w, "%12s node=%d "+format+"\n",
			append([]any{s.net.Elapsed(), s.id}, args...)...)
	}
}

// Send implements env.Context. It charges the sender's uplink for the
// message's WireSize — on the consensus lane or behind the bulk queue —
// and schedules the first bit's arrival at the receiver, where the
// downlink is charged. The charging policy is uniform across every drop
// path — see "Send accounting" in the package comment.
//
//predis:hotpath
func (s *simNode) Send(to wire.NodeID, m wire.Message) {
	net := s.net
	if net.crashed.get(s.idx) {
		// A crashed sender emits nothing and is charged nothing.
		return
	}
	size := m.WireSize()
	net.sends++

	// Uplink serialization and byte counters, charged before any drop
	// decision: a live sender always puts the packet on the wire and
	// cannot know it will die downstream.
	net.bytesSent += uint64(size)
	s.bytesUp += uint64(size)
	tx := int64(txTime(size, s.up))
	var sendStart int64
	if wire.LaneFrame(m, size) {
		// Consensus lane: the frame goes out between the packets of
		// whatever bulk is queued, waiting only for earlier lane frames.
		// Bulk already reserved keeps its slot (see "NIC model"); bulk
		// sent from now on queues behind the lane frame's bytes as well.
		sendStart = later(net.nowNs, s.laneFree)
		s.laneFree = sendStart + tx
		s.upFree = later(net.nowNs, s.upFree) + tx
		s.laneFrames++
		s.laneBytes += uint64(size)
	} else {
		sendStart = later(net.nowNs, s.upFree)
		s.upFree = sendStart + tx
	}
	sendEnd := sendStart + tx
	s.upBusy += time.Duration(tx)

	dstIdx, ok := net.index[to]
	if !ok {
		net.drops.Unknown++
		return
	}
	if net.crashed.get(dstIdx) {
		net.drops.Crashed++
		return
	}
	if net.partition != nil && net.partition(s.id, to) {
		net.drops.Partitioned++
		return
	}
	if net.dropFilter != nil && net.dropFilter(s.id, to, m) {
		net.drops.Filtered++
		return
	}
	if net.mutator != nil {
		// Content substitution only: bandwidth was already charged for the
		// frame the sender serialized, and the arrival stage keeps using
		// that size, so a mutator changes what arrives, never when.
		if mm := net.mutator(s.id, to, m); mm != nil {
			m = mm
		}
	}

	// Closure-free transfer: the message, endpoints and timing ride in the
	// event itself, so Send allocates nothing in steady state. The
	// receiver's downlink is reserved when the first bit gets there, not
	// now: frames from near and far senders take the link in the order
	// they arrive.
	lat := int64(net.latency(s.id, to))
	ev := net.schedule(sendStart+lat, dstIdx, evArrive, nil)
	ev.msg = m
	ev.src = s
	ev.dst = net.nodes[dstIdx]
	ev.size = size
	ev.lastBit = sendEnd + lat
}

// After implements env.Context. The crash guard lives in evTimer
// dispatch rather than a wrapper closure, and the returned handle is
// bump-allocated from a slab, so steady-state timer churn costs
// ~1/timerSlabSize allocations per call.
//
//predis:hotpath
func (s *simNode) After(d time.Duration, fn func()) env.Timer {
	if d < 0 {
		d = 0
	}
	net := s.net
	ev := net.schedule(net.nowNs+int64(d), s.idx, evTimer, fn)
	return net.newTimer(ev)
}

// newTimer hands out a simTimer handle snapshotting ev's generation.
func (n *Network) newTimer(ev *event) *simTimer {
	if len(n.timerSlab) == cap(n.timerSlab) {
		n.timerSlab = make([]simTimer, 0, timerSlabSize) //predis:allocok slab refill, amortized to ~1/256 per After
	}
	n.timerSlab = append(n.timerSlab, simTimer{ev: ev, gen: ev.gen})
	return &n.timerSlab[len(n.timerSlab)-1]
}

func later(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func txTime(size int, rate Bandwidth) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(size) / float64(rate) * float64(time.Second))
}
