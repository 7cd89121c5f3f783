package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"predis/internal/env"
	"predis/internal/simnet"
	"predis/internal/wire"
)

var epoch = simnet.Epoch

func at(d time.Duration) time.Time { return epoch.Add(d) }

func TestStageNamesCoverAllStages(t *testing.T) {
	if len(StageNames) != int(numStages) {
		t.Fatalf("StageNames has %d entries, want %d", len(StageNames), numStages)
	}
	for _, s := range Stages() {
		if s.String() == "unknown" {
			t.Fatalf("stage %d has no name", s)
		}
	}
	if Stage(250).String() != "unknown" {
		t.Fatal("out-of-range stage must render unknown")
	}
}

func TestKeyPacking(t *testing.T) {
	if TxKey(1, 0) == TxKey(0, 1) {
		t.Fatal("TxKey collides across client/seq")
	}
	if TxKey(3, 7) != BundleKey(3, 7) {
		// Same packing scheme — fine, but they are used on different stages
		// so they never share a (stage, key) slot.
		t.Log("TxKey and BundleKey share packing (expected)")
	}
	if BlockKey(42) != 42 {
		t.Fatal("BlockKey must be identity")
	}
}

func TestTracerBeginEndPolicies(t *testing.T) {
	tr := NewTracer(epoch)

	// First Begin wins; re-begins are ignored.
	tr.Begin(StageSubmit, 1, 5, at(10*time.Millisecond))
	tr.Begin(StageSubmit, 1, 5, at(20*time.Millisecond))
	tr.End(StageSubmit, 1, 5, at(30*time.Millisecond))
	// Later Ends are ignored.
	tr.End(StageSubmit, 1, 5, at(99*time.Millisecond))

	// End without Begin is ignored.
	tr.End(StageBundleSealed, 2, 5, at(40*time.Millisecond))

	// Open spans (no End) are excluded from export.
	tr.Begin(StageBlockProposed, 3, 5, at(50*time.Millisecond))

	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d closed spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Stage != StageSubmit || sp.Key != 1 || sp.Node != 5 {
		t.Fatalf("unexpected span %+v", sp)
	}
	if sp.Duration() != 20*time.Millisecond {
		t.Fatalf("duration = %v, want 20ms (first Begin, first End win)", sp.Duration())
	}
	if tr.SpanCount() != 2 { // one closed + one open
		t.Fatalf("SpanCount = %d, want 2", tr.SpanCount())
	}
}

func TestTracerSpanFirstWins(t *testing.T) {
	tr := NewTracer(epoch)
	tr.Span(StagePrepareCommit, 9, 1, at(time.Millisecond), at(2*time.Millisecond))
	tr.Span(StagePrepareCommit, 9, 1, at(time.Millisecond), at(9*time.Millisecond))
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Duration() != time.Millisecond {
		t.Fatalf("Span must be first-wins: %+v", spans)
	}
}

func TestTracerMarkAndSpanSinceMark(t *testing.T) {
	tr := NewTracer(epoch)
	// Earliest mark wins even when recorded later.
	tr.Mark(StageStripeDistributed, 7, at(30*time.Millisecond))
	tr.Mark(StageStripeDistributed, 7, at(10*time.Millisecond))
	tr.Mark(StageStripeDistributed, 7, at(20*time.Millisecond))
	tr.SpanSinceMark(StageStripeDistributed, 7, 3, at(50*time.Millisecond))
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Duration() != 40*time.Millisecond {
		t.Fatalf("SpanSinceMark must anchor at earliest mark: %+v", spans)
	}

	// Missing anchor → zero-length span at end (content recovered via
	// catch-up after the mark aged out).
	tr2 := NewTracer(epoch)
	tr2.SpanSinceMark(StageFullNodeDelivered, 8, 4, at(time.Second))
	spans = tr2.Spans()
	if len(spans) != 1 || spans[0].Duration() != 0 {
		t.Fatalf("anchorless SpanSinceMark must be zero-length: %+v", spans)
	}
}

func TestNilRecorders(t *testing.T) {
	var tr *Tracer
	tr.Begin(StageSubmit, 1, 1, at(0))
	tr.End(StageSubmit, 1, 1, at(0))
	tr.Span(StageSubmit, 1, 1, at(0), at(0))
	tr.Mark(StageSubmit, 1, at(0))
	tr.SpanSinceMark(StageSubmit, 1, 1, at(0))
	if tr.Spans() != nil || tr.SpanCount() != 0 {
		t.Fatal("nil tracer must be inert")
	}
	if got := tr.StageSummary(StageSubmit); got.Count != 0 {
		t.Fatal("nil tracer summary must be empty")
	}

	var c *Counter
	c.Add(1)
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must be inert")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge must be inert")
	}
	var r *Registry
	if r.Counter("x", 0) != nil || r.Gauge("x", 0) != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryCSVDeterministic(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("msgs", 2).Add(7) },
			func() { r.Counter("msgs", 1).Add(1) },
			func() { r.Gauge("depth", wire.NoNode).Set(3.5) },
		}
		for _, i := range order {
			ops[i]()
		}
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 1, 0})
	if a != b {
		t.Fatalf("registry CSV depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"metric,node,field,value\n",
		"msgs,1,value,1\n",
		"msgs,2,value,7\n",
		"depth,-,value,3.5\n",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("CSV missing %q:\n%s", want, a)
		}
	}
}

func TestStageCSV(t *testing.T) {
	tr := NewTracer(epoch)
	for i, s := range Stages() {
		d := time.Duration(i+1) * time.Millisecond
		tr.Span(s, 1, 1, at(0), at(d))
	}
	var buf bytes.Buffer
	if err := tr.WriteStageCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+int(numStages) {
		t.Fatalf("stage CSV has %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "submit,1,1,") {
		t.Fatalf("first stage row: %q", lines[1])
	}
	if !strings.HasPrefix(lines[int(StageFullNodeDelivered)+1], "fullnode_delivered,1,7,") {
		t.Fatalf("fullnode_delivered row: %q", lines[int(StageFullNodeDelivered)+1])
	}
	tbl := tr.StageTable()
	out := tbl.Render()
	for _, want := range []string{"stage", "count", "p99_ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stage table missing %q:\n%s", want, out)
		}
	}
}

type pingMsg struct{ Pad uint32 }

const pingType = wire.TypeRangeTest + 0x40

func (p *pingMsg) Type() wire.Type { return pingType }
func (p *pingMsg) WireSize() int   { return wire.FrameOverhead + 4 + int(p.Pad) }
func (p *pingMsg) EncodeBody(e *wire.Encoder) {
	e.U32(p.Pad)
	e.Raw(make([]byte, p.Pad))
}

func decodePing(d *wire.Decoder) (wire.Message, error) {
	p := &pingMsg{Pad: d.U32()}
	d.Raw(int(p.Pad))
	return p, d.Err()
}

func registerPing() {
	if !wire.Registered(pingType) {
		wire.Register(pingType, "obs-ping", decodePing)
	}
}

// streamer sends a padded ping to its peer every 10ms, forever (the run
// deadline bounds it).
type streamer struct {
	ctx  env.Context
	peer wire.NodeID
}

func (s *streamer) Start(ctx env.Context) {
	s.ctx = ctx
	s.tick()
}

func (s *streamer) tick() {
	s.ctx.Send(s.peer, &pingMsg{Pad: 60_000})
	s.ctx.After(10*time.Millisecond, s.tick)
}

func (s *streamer) Receive(from wire.NodeID, m wire.Message) {}

// sink records a synthetic submit span on every delivery.
type sink struct {
	ctx env.Context
	tr  *Tracer
}

func (s *sink) Start(ctx env.Context) { s.ctx = ctx }

func (s *sink) Receive(from wire.NodeID, m wire.Message) {
	now := s.ctx.Now()
	s.tr.Span(StageSubmit, uint64(now.UnixNano()), s.ctx.ID(), now.Add(-5*time.Millisecond), now)
}

// runSampledSim runs a tiny two-node simulation with a sampler attached
// and returns the tracer and sampler it filled.
func runSampledSim(t *testing.T) (*Tracer, *Sampler) {
	t.Helper()
	registerPing()
	net := simnet.New(simnet.Config{
		Uplink:   simnet.Mbps100,
		Downlink: simnet.Mbps100,
		Latency:  simnet.UniformLatency(5 * time.Millisecond),
		Seed:     1,
	})
	tr := NewTracer(simnet.Epoch)
	net.AddNode(0, &streamer{peer: 1})
	net.AddNode(1, &sink{tr: tr})
	s := NewSampler(net, 50*time.Millisecond)
	s.Start(400 * time.Millisecond)
	net.Start()
	net.Run(400 * time.Millisecond)
	return tr, s
}

func TestSamplerRecords(t *testing.T) {
	_, s := runSampledSim(t)
	samples := s.Samples()
	if len(samples) != 8 {
		t.Fatalf("got %d samples, want 8 (400ms / 50ms)", len(samples))
	}
	var sawBusy bool
	for _, sm := range samples {
		for _, ns := range sm.Nodes {
			if ns.Node == 0 && ns.UpUtil > 0 {
				sawBusy = true
			}
			if ns.UpUtil < 0 || ns.DownUtil < 0 {
				t.Fatalf("negative utilization: %+v", ns)
			}
		}
	}
	if !sawBusy {
		t.Fatal("sampler never saw the streaming uplink busy")
	}
	// 60 KB every 10ms over a 100 Mbps (12.5 MB/s) uplink ≈ 48% utilization;
	// check the steady-state sample is in a sane band.
	mid := samples[4].Nodes[0]
	if mid.UpUtil < 0.2 || mid.UpUtil > 0.9 {
		t.Fatalf("steady-state up_util = %v, want ≈0.48", mid.UpUtil)
	}
	last := samples[len(samples)-1]
	if last.Nodes[0].UpUtil <= 0 {
		t.Fatal("the last sample must see the streaming uplink busy")
	}
	if last.QueueLen <= 0 {
		t.Fatal("the last sample must record the event-queue depth")
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "t_ms,node,up_util,down_util,sent_bytes,recv_bytes,queue_len\n") {
		t.Fatalf("sampler CSV header: %q", buf.String()[:60])
	}
}

// TestWriteLinkCSV checks the per-link byte export: the streamer's 0→1
// traffic must appear as a positive row, and two identical runs must
// produce byte-identical output.
func TestWriteLinkCSV(t *testing.T) {
	run := func() string {
		_, s := runSampledSim(t)
		var buf bytes.Buffer
		if err := s.WriteLinkCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := run()
	if !strings.HasPrefix(a, "from,to,bytes\n") {
		t.Fatalf("link CSV header: %q", a)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(a), "\n")[1:] {
		var from, to, bytes uint64
		if _, err := fmt.Sscanf(line, "%d,%d,%d", &from, &to, &bytes); err != nil {
			t.Fatalf("malformed link row %q: %v", line, err)
		}
		if from == 0 && to == 1 {
			found = true
			if bytes == 0 {
				t.Fatal("0→1 link carried traffic but reports zero bytes")
			}
		}
	}
	if !found {
		t.Fatalf("link CSV missing the 0→1 streamer link:\n%s", a)
	}
	if b := run(); a != b {
		t.Fatal("WriteLinkCSV output differs across identical runs")
	}
}

// burst sends one ping of a distinct size to every peer at start, then
// nothing: a network of bursts drains.
type burst struct {
	peers []wire.NodeID
	pad   int
}

func (b *burst) Start(ctx env.Context) {
	for i, p := range b.peers {
		if p != ctx.ID() {
			ctx.Send(p, &pingMsg{Pad: uint32(b.pad + 100*i)})
		}
	}
}

func (b *burst) Receive(wire.NodeID, wire.Message) {}

// TestLinkCSVMatchesReceivedBytes: on a fault-free network drained to idle,
// the link CSV's bytes into each node sum to the bytes its downlink
// received.
func TestLinkCSVMatchesReceivedBytes(t *testing.T) {
	registerPing()
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.UniformLatency(5 * time.Millisecond), Seed: 1,
	})
	peers := []wire.NodeID{0, 1, 2, 3}
	for i, id := range peers {
		net.AddNode(id, &burst{peers: peers, pad: 1000 * (i + 1)})
	}
	s := NewSampler(net, 50*time.Millisecond)
	s.Start(100 * time.Millisecond)
	net.Start()
	net.RunUntilIdle(0)
	var buf bytes.Buffer
	if err := s.WriteLinkCSV(&buf); err != nil {
		t.Fatal(err)
	}
	into := make(map[wire.NodeID]uint64)
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
	for _, line := range rows {
		var from, to, n uint64
		if _, err := fmt.Sscanf(line, "%d,%d,%d", &from, &to, &n); err != nil {
			t.Fatalf("malformed link row %q: %v", line, err)
		}
		into[wire.NodeID(to)] += n
	}
	if len(rows) != len(peers)*(len(peers)-1) {
		t.Fatalf("%d link rows, want %d:\n%s", len(rows), len(peers)*(len(peers)-1), buf.String())
	}
	for _, id := range peers {
		if _, recv := net.NodeBytes(id); into[id] != recv {
			t.Fatalf("node %d: links CSV has %d bytes in, its downlink received %d", id, into[id], recv)
		}
	}
}

func TestWriteChromeParsesAndIsDeterministic(t *testing.T) {
	run := func() string {
		tr, s := runSampledSim(t)
		for i, st := range Stages() {
			tr.Span(st, uint64(i), wire.NodeID(i), at(time.Duration(i)*time.Millisecond),
				at(time.Duration(i+2)*time.Millisecond))
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := run()
	b := run()
	if a != b {
		t.Fatal("WriteChrome output differs across identical runs")
	}

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  uint64  `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(a), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	var counters int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			seen[ev.Name] = true
		}
		if ev.Ph == "C" {
			counters++
		}
	}
	for _, name := range StageNames {
		if !seen[name] {
			t.Fatalf("trace missing stage %q", name)
		}
	}
	if counters == 0 {
		t.Fatal("trace missing sampler counter events")
	}
}

func TestWriteChromeNoSampler(t *testing.T) {
	tr := NewTracer(epoch)
	tr.Span(StageSubmit, 1, 1, at(0), at(time.Millisecond))
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.String())
	}
}

func TestFormatMicros(t *testing.T) {
	cases := map[time.Duration]string{
		0:                                        "0",
		time.Microsecond:                         "1",
		1500 * time.Nanosecond:                   "1.5",
		time.Millisecond:                         "1000",
		2*time.Millisecond + 250*time.Nanosecond: "2000.25",
	}
	for in, want := range cases {
		if got := formatMicros(in); got != want {
			t.Fatalf("formatMicros(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1:       "1",
		1.5:     "1.5",
		0.3333:  "0.3333",
		12.3400: "12.34",
		-0.5:    "-0.5",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
