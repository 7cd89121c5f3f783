package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"predis/internal/wire"
)

// Counter is a monotonically increasing count. All methods are nil-safe,
// as a nil Registry hands out nil counters.
type Counter struct{ v uint64 }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// metricKey scopes a metric to one node. wire.NoNode scopes a metric to
// the whole simulation.
type metricKey struct {
	name string
	node wire.NodeID
}

// Registry is a per-simulation registry of per-node metrics. Components
// keep their own counters; a run's harness fills the registry from them
// once the run has ended, and the registry exports them. Not safe for
// concurrent use.
type Registry struct {
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[metricKey]*Counter),
		gauges:   make(map[metricKey]*Gauge),
	}
}

// Counter returns the named counter for a node, creating it on first use.
// Nil registries return nil (recording becomes a no-op).
func (r *Registry) Counter(name string, node wire.NodeID) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey{name, node}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the named gauge for a node, creating it on first use.
func (r *Registry) Gauge(name string, node wire.NodeID) *Gauge {
	if r == nil {
		return nil
	}
	k := metricKey{name, node}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// metricRow is one exported line.
type metricRow struct {
	name  string
	node  wire.NodeID
	field string
	value string
}

// rows flattens every metric into sorted rows, one "value" field each:
// counters first, then gauges. Sorting by (name, node) makes the dump
// independent of map iteration and therefore byte-stable across runs.
func (r *Registry) rows() []metricRow {
	if r == nil {
		return nil
	}
	out := make([]metricRow, 0, len(r.counters)+len(r.gauges))
	keys := make([]metricKey, 0, len(r.counters))
	for k := range r.counters {
		keys = append(keys, k)
	}
	sortMetricKeys(keys)
	for _, k := range keys {
		out = append(out, metricRow{k.name, k.node, "value",
			strconv.FormatUint(r.counters[k].Value(), 10)})
	}
	keys = keys[:0]
	for k := range r.gauges {
		keys = append(keys, k)
	}
	sortMetricKeys(keys)
	for _, k := range keys {
		out = append(out, metricRow{k.name, k.node, "value", formatFloat(r.gauges[k].Value())})
	}
	return out
}

func sortMetricKeys(keys []metricKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].node < keys[j].node
	})
}

// WriteCSV dumps every metric as `metric,node,field,value` rows in sorted
// order. A node of wire.NoNode renders as "-" (simulation-wide metrics).
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "metric,node,field,value\n"); err != nil {
		return err
	}
	for _, row := range r.rows() {
		node := "-"
		if row.node != wire.NoNode {
			node = strconv.FormatUint(uint64(row.node), 10)
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s\n", row.name, node, row.field, row.value); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders a float deterministically with up to 4 decimals,
// trimming trailing zeros ("1.5", "0.3333", "12").
func formatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 4, 64)
	// Trim trailing zeros and a dangling decimal point.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
