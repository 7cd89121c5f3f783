package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"time"
)

// ChromeSimPID is the pseudo process ID under which simulation-wide
// counter tracks (event-queue depth, aggregate delivery rate) appear in
// the Chrome trace viewer, clearly separated from real node IDs.
const ChromeSimPID = 1 << 30

// WriteChrome writes the recorded spans — and, when sampler is non-nil,
// its NIC/queue counter tracks — as Chrome trace-event JSON (the format
// consumed by chrome://tracing and https://ui.perfetto.dev). Every node is
// a process; every pipeline stage is a thread within it; stage spans are
// complete ("X") events and sampler tracks are counter ("C") events.
//
// Emission order is fully sorted (metadata by pid/tid, spans via
// Tracer.Spans, counters by tick then node), so two runs that record the
// same data produce byte-identical files.
func (t *Tracer) WriteChrome(w io.Writer, sampler *Sampler) error {
	bw := bufio.NewWriter(w)
	cw := &chromeWriter{w: bw}
	cw.raw(`{"traceEvents":[`)

	spans := t.Spans()
	epoch := t.Epoch()

	// Metadata: name each node process and each stage thread that occurs.
	type pidTid struct {
		pid uint64
		tid int
	}
	pids := map[uint64]bool{}
	threads := map[pidTid]bool{}
	for _, sp := range spans {
		pids[uint64(sp.Node)] = true
		threads[pidTid{uint64(sp.Node), int(sp.Stage) + 1}] = true
	}
	if sampler != nil && len(sampler.Samples()) > 0 {
		pids[ChromeSimPID] = true
		for _, ns := range sampler.Samples()[0].Nodes {
			pids[uint64(ns.Node)] = true
		}
	}
	sortedPids := make([]uint64, 0, len(pids))
	for pid := range pids {
		sortedPids = append(sortedPids, pid)
	}
	sort.Slice(sortedPids, func(i, j int) bool { return sortedPids[i] < sortedPids[j] })
	for _, pid := range sortedPids {
		name := "node " + strconv.FormatUint(pid, 10)
		if pid == ChromeSimPID {
			name = "simulator"
		}
		cw.event(`{"name":"process_name","ph":"M","pid":` + strconv.FormatUint(pid, 10) +
			`,"tid":0,"args":{"name":"` + name + `"}}`)
	}
	sortedThreads := make([]pidTid, 0, len(threads))
	for th := range threads {
		sortedThreads = append(sortedThreads, th)
	}
	sort.Slice(sortedThreads, func(i, j int) bool {
		if sortedThreads[i].pid != sortedThreads[j].pid {
			return sortedThreads[i].pid < sortedThreads[j].pid
		}
		return sortedThreads[i].tid < sortedThreads[j].tid
	})
	for _, th := range sortedThreads {
		cw.event(`{"name":"thread_name","ph":"M","pid":` + strconv.FormatUint(th.pid, 10) +
			`,"tid":` + strconv.Itoa(th.tid) +
			`,"args":{"name":"` + Stage(th.tid-1).String() + `"}}`)
	}

	// Complete events, one per closed span, in Spans() order (sorted by
	// start time, node, stage, key — deterministic).
	for _, sp := range spans {
		cw.event(`{"name":"` + sp.Stage.String() +
			`","cat":"stage","ph":"X","ts":` + chromeTS(epoch, sp.Start) +
			`,"dur":` + chromeDur(sp.Duration()) +
			`,"pid":` + strconv.FormatUint(uint64(sp.Node), 10) +
			`,"tid":` + strconv.Itoa(int(sp.Stage)+1) +
			`,"args":{"key":` + strconv.FormatUint(sp.Key, 10) + `}}`)
	}

	// Counter events from the sampler: simulator-wide track first, then
	// per-node NIC utilization, per tick in time order.
	if sampler != nil {
		simPID := strconv.Itoa(ChromeSimPID)
		for _, sm := range sampler.Samples() {
			ts := chromeTS(epoch, sm.At)
			cw.event(`{"name":"event queue","ph":"C","ts":` + ts +
				`,"pid":` + simPID + `,"args":{"depth":` + strconv.Itoa(sm.QueueLen) + `}}`)
			cw.event(`{"name":"delivery","ph":"C","ts":` + ts +
				`,"pid":` + simPID + `,"args":{"msgs_per_tick":` + strconv.FormatUint(sm.Delivered, 10) +
				`,"bytes_per_tick":` + strconv.FormatUint(sm.SentBytes, 10) + `}}`)
			for _, ns := range sm.Nodes {
				cw.event(`{"name":"nic","ph":"C","ts":` + ts +
					`,"pid":` + strconv.FormatUint(uint64(ns.Node), 10) +
					`,"args":{"up_util":` + formatFloat(ns.UpUtil) +
					`,"down_util":` + formatFloat(ns.DownUtil) + `}}`)
			}
		}
	}

	cw.raw("]}\n")
	if cw.err != nil {
		return cw.err
	}
	return bw.Flush()
}

// chromeWriter emits comma-separated JSON array elements, remembering
// whether a separator is due and latching the first write error.
type chromeWriter struct {
	w     io.Writer
	wrote bool
	err   error
}

func (c *chromeWriter) raw(s string) {
	if c.err != nil {
		return
	}
	_, c.err = io.WriteString(c.w, s)
}

func (c *chromeWriter) event(s string) {
	if c.wrote {
		c.raw(",\n")
	} else {
		c.raw("\n")
	}
	c.wrote = true
	c.raw(s)
}

// chromeTS renders an absolute time as microseconds since the epoch with
// nanosecond precision — deterministic for identical inputs.
func chromeTS(epoch, at time.Time) string {
	return formatMicros(at.Sub(epoch))
}

// chromeDur renders a duration in microseconds.
func chromeDur(d time.Duration) string { return formatMicros(d) }

func formatMicros(d time.Duration) string {
	micros := d.Nanoseconds() / 1000
	frac := d.Nanoseconds() % 1000
	if frac == 0 {
		return strconv.FormatInt(micros, 10)
	}
	s := strconv.FormatInt(micros, 10) + "." + pad3(frac)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	return s
}

func pad3(v int64) string {
	s := strconv.FormatInt(v, 10)
	for len(s) < 3 {
		s = "0" + s
	}
	return s
}
