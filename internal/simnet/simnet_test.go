package simnet

import (
	"testing"
	"time"

	"predis/internal/env"
	"predis/internal/wire"
)

// ping is a fixed-size test message.
type ping struct {
	Seq  uint64
	Size uint32 // payload padding size
}

const pingType = wire.TypeRangeTest + 0x10

func (p *ping) Type() wire.Type { return pingType }
func (p *ping) WireSize() int   { return wire.FrameOverhead + 8 + 4 + int(p.Size) }
func (p *ping) EncodeBody(e *wire.Encoder) {
	e.U64(p.Seq)
	e.U32(p.Size)
	e.Raw(make([]byte, p.Size))
}

func decodePing(d *wire.Decoder) (wire.Message, error) {
	p := &ping{Seq: d.U64(), Size: d.U32()}
	d.Raw(int(p.Size))
	return p, d.Err()
}

func registerTestTypes() {
	if !wire.Registered(pingType) {
		wire.Register(pingType, "simnet-ping", decodePing)
	}
}

// recorder collects deliveries with their times.
type recorder struct {
	ctx     env.Context
	got     []recordedMsg
	onStart func(env.Context)
	onRecv  func(from wire.NodeID, m wire.Message)
}

type recordedMsg struct {
	from wire.NodeID
	m    wire.Message
	at   time.Time
}

func (r *recorder) Start(ctx env.Context) {
	r.ctx = ctx
	if r.onStart != nil {
		r.onStart(ctx)
	}
}

func (r *recorder) Receive(from wire.NodeID, m wire.Message) {
	r.got = append(r.got, recordedMsg{from: from, m: m, at: r.ctx.Now()})
	if r.onRecv != nil {
		r.onRecv(from, m)
	}
}

func TestLatencyOnlyDelivery(t *testing.T) {
	registerTestTypes()
	n := New(Config{Latency: UniformLatency(25 * time.Millisecond)})
	a := &recorder{}
	b := &recorder{}
	n.AddNode(0, a)
	n.AddNode(1, b)
	n.Start()
	a.ctx.Send(1, &ping{Seq: 1})
	n.Run(time.Second)
	if len(b.got) != 1 {
		t.Fatalf("b received %d messages", len(b.got))
	}
	if got := b.got[0].at.Sub(Epoch); got != 25*time.Millisecond {
		t.Fatalf("delivery at %v, want 25ms", got)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	registerTestTypes()
	// 1000 bytes/s uplink: a message of ~500B takes ~0.5s to serialize.
	n := New(Config{Uplink: 1000, Downlink: 0})
	a := &recorder{}
	b := &recorder{}
	n.AddNode(0, a)
	n.AddNode(1, b)
	n.Start()
	msg := &ping{Seq: 1, Size: 1000 - wire.FrameOverhead - 12} // exactly 1000B
	a.ctx.Send(1, msg)
	a.ctx.Send(1, msg) // queued behind the first
	n.Run(10 * time.Second)
	if len(b.got) != 2 {
		t.Fatalf("received %d", len(b.got))
	}
	d1 := b.got[0].at.Sub(Epoch)
	d2 := b.got[1].at.Sub(Epoch)
	if d1 != time.Second || d2 != 2*time.Second {
		t.Fatalf("deliveries at %v, %v; want 1s, 2s", d1, d2)
	}
}

func TestDownlinkContention(t *testing.T) {
	registerTestTypes()
	// Two senders with fast uplinks, one receiver with a slow downlink:
	// the second message must queue at the receiver NIC.
	n := New(Config{Uplink: 0, Downlink: 1000})
	a, b, c := &recorder{}, &recorder{}, &recorder{}
	n.AddNode(0, a)
	n.AddNode(1, b)
	n.AddNode(2, c)
	n.Start()
	msg := &ping{Seq: 1, Size: 1000 - wire.FrameOverhead - 12}
	a.ctx.Send(2, msg)
	b.ctx.Send(2, msg)
	n.Run(10 * time.Second)
	if len(c.got) != 2 {
		t.Fatalf("received %d", len(c.got))
	}
	if d := c.got[1].at.Sub(Epoch); d != 2*time.Second {
		t.Fatalf("second delivery at %v, want 2s (downlink queue)", d)
	}
}

func TestDeterminism(t *testing.T) {
	registerTestTypes()
	run := func() []time.Duration {
		n := New(Config{Uplink: Mbps100, Downlink: Mbps100, Latency: WANLatency(), Seed: 7})
		recs := make([]*recorder, 4)
		for i := range recs {
			recs[i] = &recorder{}
			n.AddNode(wire.NodeID(i), recs[i])
		}
		n.Start()
		// Every node multicasts a few messages of random-but-seeded sizes.
		for i, r := range recs {
			ctx := r.ctx
			for k := 0; k < 5; k++ {
				size := uint32(ctx.Rand().Intn(5000))
				for p := 0; p < 4; p++ {
					if p != i {
						ctx.Send(wire.NodeID(p), &ping{Seq: uint64(k), Size: size})
					}
				}
			}
		}
		n.Run(time.Second)
		var times []time.Duration
		for _, r := range recs {
			for _, g := range r.got {
				times = append(times, g.at.Sub(Epoch))
			}
		}
		return times
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) || len(t1) == 0 {
		t.Fatalf("runs delivered %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("delivery %d at %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestTimersFireInOrderAndCancel(t *testing.T) {
	registerTestTypes()
	n := New(Config{})
	var fired []int
	r := &recorder{}
	n.AddNode(0, r)
	n.Start()
	ctx := r.ctx
	ctx.After(30*time.Millisecond, func() { fired = append(fired, 3) })
	ctx.After(10*time.Millisecond, func() { fired = append(fired, 1) })
	tm := ctx.After(20*time.Millisecond, func() { fired = append(fired, 2) })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	n.Run(time.Second)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCrashSuppressesTrafficAndTimers(t *testing.T) {
	registerTestTypes()
	n := New(Config{Latency: UniformLatency(5 * time.Millisecond)})
	a, b := &recorder{}, &recorder{}
	n.AddNode(0, a)
	n.AddNode(1, b)
	n.Start()
	fired := false
	b.ctx.After(50*time.Millisecond, func() { fired = true })
	n.Crash(1)
	a.ctx.Send(1, &ping{Seq: 1})
	n.Run(100 * time.Millisecond)
	if len(b.got) != 0 {
		t.Fatal("crashed node received a message")
	}
	if fired {
		t.Fatal("crashed node's timer fired")
	}
	if !n.Crashed(1) {
		t.Fatal("Crashed(1) = false")
	}
	n.Restart(1)
	a.ctx.Send(1, &ping{Seq: 2})
	n.Run(300 * time.Millisecond)
	if len(b.got) != 1 {
		t.Fatalf("after restart got %d messages", len(b.got))
	}
}

func TestPartitionAndDropFilter(t *testing.T) {
	registerTestTypes()
	n := New(Config{})
	a, b := &recorder{}, &recorder{}
	n.AddNode(0, a)
	n.AddNode(1, b)
	n.Start()
	n.SetPartition(func(from, to wire.NodeID) bool { return from == 0 && to == 1 })
	a.ctx.Send(1, &ping{Seq: 1})
	n.Run(time.Millisecond)
	if len(b.got) != 0 {
		t.Fatal("partitioned message delivered")
	}
	n.SetPartition(nil)
	n.SetDropFilter(func(from, to wire.NodeID, m wire.Message) bool {
		p, ok := m.(*ping)
		return ok && p.Seq == 2
	})
	a.ctx.Send(1, &ping{Seq: 2})
	a.ctx.Send(1, &ping{Seq: 3})
	n.Run(time.Second)
	if len(b.got) != 1 {
		t.Fatalf("got %d messages, want 1", len(b.got))
	}
	if b.got[0].m.(*ping).Seq != 3 {
		t.Fatal("wrong message survived the drop filter")
	}
}

func TestCopyOnDeliver(t *testing.T) {
	registerTestTypes()
	n := New(Config{CopyOnDeliver: true})
	a, b := &recorder{}, &recorder{}
	n.AddNode(0, a)
	n.AddNode(1, b)
	n.Start()
	orig := &ping{Seq: 9, Size: 8}
	a.ctx.Send(1, orig)
	n.Run(time.Second)
	if len(b.got) != 1 {
		t.Fatalf("got %d", len(b.got))
	}
	if b.got[0].m == wire.Message(orig) {
		t.Fatal("CopyOnDeliver must not deliver the sender's pointer")
	}
	if b.got[0].m.(*ping).Seq != 9 {
		t.Fatal("copied message corrupted")
	}
}

func TestOnDeliverHookAndCounters(t *testing.T) {
	registerTestTypes()
	n := New(Config{})
	a, b := &recorder{}, &recorder{}
	n.AddNode(0, a)
	n.AddNode(1, b)
	n.Start()
	var hooked int
	n.OnDeliver = func(from, to wire.NodeID, m wire.Message, at time.Time) { hooked++ }
	msg := &ping{Seq: 1, Size: 100}
	a.ctx.Send(1, msg)
	n.Run(time.Second)
	if hooked != 1 {
		t.Fatalf("hook fired %d times", hooked)
	}
	if n.Delivered() != 1 {
		t.Fatalf("Delivered = %d", n.Delivered())
	}
	if n.BytesSent() != uint64(msg.WireSize()) {
		t.Fatalf("BytesSent = %d, want %d", n.BytesSent(), msg.WireSize())
	}
}

func TestRunUntilIdleBounded(t *testing.T) {
	registerTestTypes()
	n := New(Config{})
	r := &recorder{}
	n.AddNode(0, r)
	n.Start()
	// A self-perpetuating timer chain would never drain.
	var rearm func()
	rearm = func() { r.ctx.After(time.Millisecond, rearm) }
	rearm()
	ran := n.RunUntilIdle(100)
	if ran != 100 {
		t.Fatalf("RunUntilIdle ran %d events, want 100", ran)
	}
}

func TestSendToUnknownOrSelf(t *testing.T) {
	registerTestTypes()
	n := New(Config{})
	r := &recorder{}
	n.AddNode(0, r)
	n.Start()
	r.ctx.Send(99, &ping{Seq: 1}) // unknown: silently dropped
	r.ctx.Send(0, &ping{Seq: 2})  // self-delivery goes through the loop
	n.Run(time.Second)
	if len(r.got) != 1 || r.got[0].m.(*ping).Seq != 2 {
		t.Fatalf("got %v", r.got)
	}
}

func TestWANLatencyMatrixSymmetric(t *testing.T) {
	lat := WANLatency()
	for a := wire.NodeID(0); a < 8; a++ {
		for b := wire.NodeID(0); b < 8; b++ {
			if lat(a, b) != lat(b, a) {
				t.Fatalf("asymmetric latency between %d and %d", a, b)
			}
			if lat(a, b) <= 0 {
				t.Fatalf("non-positive latency between %d and %d", a, b)
			}
		}
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	n := New(Config{})
	n.AddNode(0, &recorder{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	n.AddNode(0, &recorder{})
}

func TestMulticastSkipsSelf(t *testing.T) {
	registerTestTypes()
	n := New(Config{})
	recs := make([]*recorder, 3)
	for i := range recs {
		recs[i] = &recorder{}
		n.AddNode(wire.NodeID(i), recs[i])
	}
	n.Start()
	env.Multicast(recs[0].ctx, []wire.NodeID{0, 1, 2}, &ping{Seq: 5})
	n.Run(time.Second)
	if len(recs[0].got) != 0 {
		t.Fatal("multicast delivered to self")
	}
	if len(recs[1].got) != 1 || len(recs[2].got) != 1 {
		t.Fatal("multicast missed a peer")
	}
}

// chirper is a Restartable handler with a self-re-arming timer chain that
// records every tick; it also pings a peer on each tick so the test can
// observe its traffic from outside.
type chirper struct {
	ctx      env.Context
	peer     wire.NodeID
	period   time.Duration
	ticks    []time.Duration
	restarts int
	seq      uint64
}

func (c *chirper) Start(ctx env.Context) {
	c.ctx = ctx
	c.arm()
}

func (c *chirper) arm() {
	c.ctx.After(c.period, func() {
		c.ticks = append(c.ticks, c.ctx.Now().Sub(Epoch))
		c.seq++
		c.ctx.Send(c.peer, &ping{Seq: c.seq})
		c.arm()
	})
}

// OnRestart implements env.Restartable: re-arm the timer chain the crash
// killed.
func (c *chirper) OnRestart() {
	c.restarts++
	c.arm()
}

func (c *chirper) Receive(from wire.NodeID, m wire.Message) {}

// TestRestartInvokesRestartableHook crashes a node whose only liveness
// comes from a self-re-arming timer chain, restarts it, and asserts the
// OnRestart hook ran and the chain resumed: without the hook the node
// would stay silent forever (the crash suppressed the pending fire).
func TestRestartInvokesRestartableHook(t *testing.T) {
	registerTestTypes()
	n := New(Config{Latency: UniformLatency(time.Millisecond)})
	c := &chirper{peer: 1, period: 10 * time.Millisecond}
	sink := &recorder{}
	n.AddNode(0, c)
	n.AddNode(1, sink)
	n.At(35*time.Millisecond, func() { n.Crash(0) })
	n.At(80*time.Millisecond, func() { n.Restart(0) })
	n.Start()
	n.Run(150 * time.Millisecond)

	if c.restarts != 1 {
		t.Fatalf("OnRestart ran %d times, want 1", c.restarts)
	}
	var before, after int
	for _, at := range c.ticks {
		switch {
		case at < 35*time.Millisecond:
			before++
		case at >= 80*time.Millisecond:
			after++
		default:
			t.Fatalf("tick at %v inside the crash window", at)
		}
	}
	if before != 3 {
		t.Fatalf("%d pre-crash ticks, want 3", before)
	}
	if after < 5 {
		t.Fatalf("%d post-restart ticks, want ≥ 5 (chain did not resume)", after)
	}
	// The final tick can land exactly on the run horizon, leaving its ping
	// undelivered; allow that one message of slack.
	if len(sink.got) < before+after-1 {
		t.Fatalf("sink saw %d pings, chirper ticked %d times", len(sink.got), before+after)
	}
}

// TestRestartWithoutRestartableStaysQuiet documents the contract for
// handlers that do NOT implement env.Restartable: the node becomes
// reachable again but its dead timer chain stays dead.
func TestRestartWithoutRestartableStaysQuiet(t *testing.T) {
	registerTestTypes()
	n := New(Config{Latency: UniformLatency(time.Millisecond)})
	ticks := 0
	a := &recorder{}
	a.onStart = func(ctx env.Context) {
		var arm func()
		arm = func() {
			ctx.After(10*time.Millisecond, func() { ticks++; arm() })
		}
		arm()
	}
	b := &recorder{}
	n.AddNode(0, a)
	n.AddNode(1, b)
	n.At(35*time.Millisecond, func() { n.Crash(0) })
	n.At(50*time.Millisecond, func() { n.Restart(0) })
	n.Start()
	n.Run(200 * time.Millisecond)
	if ticks != 3 {
		t.Fatalf("plain handler ticked %d times, want 3 (chain must die at crash)", ticks)
	}
	// ...but message delivery to the node resumed.
	b.ctx.Send(0, &ping{Seq: 1})
	n.Run(250 * time.Millisecond)
	if len(a.got) != 1 {
		t.Fatalf("restarted node got %d messages, want 1", len(a.got))
	}
}

// TestCrashRestartDeterministic replays a scripted crash/restart run
// twice and demands bit-identical tick traces and delivery counts.
func TestCrashRestartDeterministic(t *testing.T) {
	registerTestTypes()
	run := func() ([]time.Duration, int, uint64) {
		n := New(Config{Latency: LANLatency(), Seed: 42})
		c := &chirper{peer: 1, period: 7 * time.Millisecond}
		sink := &recorder{}
		n.AddNode(0, c)
		n.AddNode(1, sink)
		n.At(20*time.Millisecond, func() { n.Crash(0) })
		n.At(51*time.Millisecond, func() { n.Restart(0) })
		n.Start()
		n.Run(120 * time.Millisecond)
		return c.ticks, len(sink.got), n.Delivered()
	}
	t1, g1, d1 := run()
	t2, g2, d2 := run()
	if g1 != g2 || d1 != d2 || len(t1) != len(t2) {
		t.Fatalf("nondeterministic: got %d/%d msgs, %d/%d delivered, %d/%d ticks",
			g1, g2, d1, d2, len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("tick %d at %v vs %v", i, t1[i], t2[i])
		}
	}
	if g1 == 0 {
		t.Fatal("empty run")
	}
}

// sendProbe builds a fresh network with nodes 0 and 1 and returns it with
// the two recorders. Bandwidth is finite so uplink busy time is non-zero.
func sendProbe(t *testing.T, cfg Config) (*Network, *recorder, *recorder) {
	t.Helper()
	registerTestTypes()
	if cfg.Uplink == 0 {
		cfg.Uplink = Mbps100
	}
	if cfg.Downlink == 0 {
		cfg.Downlink = Mbps100
	}
	n := New(cfg)
	a, b := &recorder{}, &recorder{}
	n.AddNode(0, a)
	n.AddNode(1, b)
	n.Start()
	return n, a, b
}

// TestSendAccountingUniformAcrossDrops pins the uniform charging policy:
// every drop path charges the live sender's uplink and the byte counters
// exactly like a delivered message, and increments exactly one drop cause.
// Before the fix, unknown destinations charged nothing while crashed
// destinations charged everything — asymmetric and untestable.
func TestSendAccountingUniformAcrossDrops(t *testing.T) {
	msg := &ping{Seq: 1, Size: 1000}
	size := uint64(msg.WireSize())

	check := func(name string, n *Network, wantDrops DropCounts) {
		t.Helper()
		if n.BytesSent() != size {
			t.Fatalf("%s: BytesSent = %d, want %d (drop paths must charge bytes)", name, n.BytesSent(), size)
		}
		sent, _ := n.NodeBytes(0)
		if sent != size {
			t.Fatalf("%s: sender NodeBytes = %d, want %d", name, sent, size)
		}
		up, _ := n.NICBusy(0)
		if up <= 0 {
			t.Fatalf("%s: sender uplink busy = %v, want > 0 (drop paths must charge uplink)", name, up)
		}
		if n.Dropped() != wantDrops {
			t.Fatalf("%s: Dropped = %+v, want %+v", name, n.Dropped(), wantDrops)
		}
		if n.Delivered() != 0 {
			t.Fatalf("%s: Delivered = %d, want 0", name, n.Delivered())
		}
		if n.Sends() != n.Delivered()+n.Dropped().Total() {
			t.Fatalf("%s: invariant broken: sends=%d delivered=%d drops=%d",
				name, n.Sends(), n.Delivered(), n.Dropped().Total())
		}
	}

	t.Run("unknown", func(t *testing.T) {
		n, a, _ := sendProbe(t, Config{})
		a.ctx.Send(99, msg)
		n.Run(time.Second)
		check("unknown", n, DropCounts{Unknown: 1})
	})
	t.Run("crashed-dest", func(t *testing.T) {
		n, a, _ := sendProbe(t, Config{})
		n.Crash(1)
		a.ctx.Send(1, msg)
		n.Run(time.Second)
		check("crashed-dest", n, DropCounts{Crashed: 1})
	})
	t.Run("partitioned", func(t *testing.T) {
		n, a, _ := sendProbe(t, Config{})
		n.SetPartition(func(from, to wire.NodeID) bool { return true })
		a.ctx.Send(1, msg)
		n.Run(time.Second)
		check("partitioned", n, DropCounts{Partitioned: 1})
	})
	t.Run("filtered", func(t *testing.T) {
		n, a, _ := sendProbe(t, Config{})
		n.SetDropFilter(func(from, to wire.NodeID, m wire.Message) bool { return true })
		a.ctx.Send(1, msg)
		n.Run(time.Second)
		check("filtered", n, DropCounts{Filtered: 1})
	})
	t.Run("crashed-sender-charges-nothing", func(t *testing.T) {
		n, a, _ := sendProbe(t, Config{})
		n.Crash(0)
		a.ctx.Send(1, msg)
		n.Run(time.Second)
		if n.Sends() != 0 || n.BytesSent() != 0 || n.Dropped().Total() != 0 {
			t.Fatalf("crashed sender must be inert: sends=%d bytes=%d drops=%+v",
				n.Sends(), n.BytesSent(), n.Dropped())
		}
		up, _ := n.NICBusy(0)
		if up != 0 {
			t.Fatalf("crashed sender uplink busy = %v, want 0", up)
		}
	})
}

// TestInFlightCrashCountsAsCrashedDrop covers the delivery-time drop path:
// a message already on the wire when the receiver crashes is counted under
// Crashed, keeping the sends = delivered + drops invariant.
func TestInFlightCrashCountsAsCrashedDrop(t *testing.T) {
	n, a, b := sendProbe(t, Config{Latency: UniformLatency(50 * time.Millisecond)})
	a.ctx.Send(1, &ping{Seq: 1, Size: 10})
	n.At(10*time.Millisecond, func() { n.Crash(1) })
	n.Run(time.Second)
	if len(b.got) != 0 {
		t.Fatalf("crashed receiver got %d messages", len(b.got))
	}
	if got := n.Dropped(); got != (DropCounts{Crashed: 1}) {
		t.Fatalf("Dropped = %+v, want Crashed:1", got)
	}
	if n.Sends() != n.Delivered()+n.Dropped().Total() {
		t.Fatalf("invariant broken: sends=%d delivered=%d drops=%d",
			n.Sends(), n.Delivered(), n.Dropped().Total())
	}
}

// TestNICAccounting checks the sampler-facing accessors: busy time
// matches serialization time and per-node bytes match what was sent.
func TestNICAccounting(t *testing.T) {
	n, a, b := sendProbe(t, Config{})
	msg := &ping{Seq: 1, Size: 125_000} // ≈10ms at 100 Mbps
	a.ctx.Send(1, msg)
	b.ctx.Send(0, &ping{Seq: 2, Size: 0})
	n.Run(time.Second)

	size := uint64(msg.WireSize())
	wantBusy := time.Duration(float64(size) / float64(Mbps100) * float64(time.Second))
	up, _ := n.NICBusy(0)
	if up != wantBusy {
		t.Fatalf("uplink busy = %v, want %v", up, wantBusy)
	}
	_, down := n.NICBusy(1)
	if down != wantBusy {
		t.Fatalf("downlink busy = %v, want %v", down, wantBusy)
	}
	sent0, recv0 := n.NodeBytes(0)
	if sent0 != size || recv0 == 0 {
		t.Fatalf("node 0 bytes = (%d, %d)", sent0, recv0)
	}
	if up2, down2 := n.NICBusy(99); up2 != 0 || down2 != 0 {
		t.Fatal("unknown node NICBusy must be zero")
	}
	ids := n.NodeIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("NodeIDs = %v", ids)
	}
}
