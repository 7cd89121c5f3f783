package harness

import (
	"time"

	"predis/internal/stats"
)

// fig5 compares Predis (P-HS) against the Narwhal and Stratus baselines on
// the same chained-HotStuff substrate, nc = 4, one worker each, 50
// transactions per bundle/microblock (§V-A "Comparison with SOTA").
func fig5(o Options, wan bool, title string) ([]*stats.Table, error) {
	loads := []float64{4000, 8000, 12000, 16000, 20000}
	duration := 6 * time.Second
	if o.Quick {
		loads = []float64{4000, 10000, 16000}
		duration = 3 * time.Second
	}
	systems := []System{SysPHS, SysNarwhal, SysStratus}
	tput := &stats.Table{Title: title + " — throughput (tx/s) vs offered load", XLabel: "offered"}
	lat := &stats.Table{Title: title + " — latency (ms) vs throughput", XLabel: "tput"}
	type sweep struct{ tl, lat *stats.Series }
	sweeps, err := parRun(len(systems), o.parallel(), func(i int) (sweep, error) {
		sys := systems[i]
		base := Deploy{
			System: sys, NC: 4, WAN: wan, Load: duration, Seed: o.seed(),
		}
		ts, ls, err := LoadSweep(base, loads)
		if err != nil {
			return sweep{}, err
		}
		name := string(sys)
		if sys == SysPHS {
			name = "Predis"
		}
		ts.Name, ls.Name = name, name
		return sweep{ts, ls}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range sweeps {
		tput.Series = append(tput.Series, s.tl)
		lat.Series = append(lat.Series, s.lat)
	}
	return []*stats.Table{tput, lat}, nil
}

// Fig5WAN reproduces Fig. 5(a,b).
func Fig5WAN(o Options) ([]*stats.Table, error) {
	return fig5(o, true, "Fig.5 WAN")
}

// Fig5LAN reproduces Fig. 5(c,d).
func Fig5LAN(o Options) ([]*stats.Table, error) {
	return fig5(o, false, "Fig.5 LAN")
}
