// Package detflow enforces the simnet determinism contract on sim-visible
// code: every package that can execute inside the discrete-event
// simulator must derive all time from env.Context.Now, all randomness
// from env.Context.Rand, all concurrency from env.Context.After, and must
// never let Go's unordered map iteration decide the order of message
// emission, event scheduling, or stats recording.
//
// Direct sources are reported at their own position:
//
//   - a call to (or a captured value of) a wall-clock time function;
//   - a global-source math/rand function;
//   - an emission-named call (Send/After/Multicast/Record*) inside a map
//     range, reported at the range statement;
//   - a raw `go` statement.
//
// Sources that hide behind the call graph are reported too:
//
//  1. wall clock: a sim-visible function whose call chain reaches a
//     forbidden time package function through functions outside the
//     scope (chain rendered in the message);
//  2. global rand: likewise for global-source math/rand functions;
//  3. map-order emission: a call inside a map-iteration body whose
//     resolved targets transitively emit leaks iteration order into the
//     event stream even though no emission name appears in the body.
//
// Scope: packages outside the trusted runtime segments (rtnet, simnet,
// env, cmd, faults), non-test functions only. Taint does not cross
// interfaces declared by trusted packages (env.Context.Now is the
// sanctioned clock boundary).
package detflow

import (
	"predis/tools/analyzers/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "determinism: wall clocks, global math/rand, raw goroutines, and " +
		"map-iteration order reaching sim-visible emission, directly or through call chains",
	Run: run,
}

// clockAdvice names the virtual-time replacement for each wall-clock
// source.
var clockAdvice = map[string]string{
	"time.Now":       "env.Context.Now",
	"time.Sleep":     "env.Context.After",
	"time.Since":     "env.Context.Now and Sub",
	"time.Until":     "env.Context.Now and Sub",
	"time.After":     "env.Context.After",
	"time.AfterFunc": "env.Context.After",
	"time.Tick":      "env.Context.After",
	"time.NewTimer":  "env.Context.After",
	"time.NewTicker": "env.Context.After",
}

func run(pass *analysis.Pass) error {
	if analysis.PathHasSegment(pass.PkgPath, analysis.TrustedSegments...) {
		return nil
	}
	prog := pass.Program()
	wall := prog.Propagate(analysis.DirectWallClock, analysis.StandardFollow)
	grand := prog.Propagate(analysis.DirectGlobalRand, analysis.StandardFollow)
	emit := prog.Propagate(analysis.DirectEmission, analysis.StandardFollow)

	for _, n := range prog.Nodes() {
		if n.Pkg.PkgPath != pass.PkgPath || n.IsTest {
			continue
		}
		reportDirect(pass, n)
		reportSourceTaint(pass, prog, n, wall, "wall clock")
		reportSourceTaint(pass, prog, n, grand, "global math/rand")
		reportMapOrderEmission(pass, n, emit)
	}
	return nil
}

// reportDirect reports n's own sources, each at its position.
func reportDirect(pass *analysis.Pass, n *analysis.FuncNode) {
	ranged := make(map[int]bool)
	for _, site := range n.Calls {
		reportSourceSite(pass, site)
		if site.RangeIdx >= 0 && site.Kind != analysis.CallRef &&
			analysis.IsEmissionName(site.Name) && !ranged[site.RangeIdx] {
			ranged[site.RangeIdx] = true // one report per range statement
			pass.Reportf(n.Ranges[site.RangeIdx].Pos,
				"map iteration order feeds %s; collect the keys, sort them, and iterate "+
					"the sorted slice so the schedule is seed-stable", site.Name)
		}
	}
	for _, pos := range n.Gos {
		pass.Reportf(pos, "raw goroutine in sim-visible code; schedule work with env.Context.After "+
			"so the simulator serializes it deterministically")
	}
}

// reportSourceSite reports a call to, or a capture of, a wall-clock or
// global-rand function. A call through a local bound to one is not
// reported again: the capture where it was bound already is.
func reportSourceSite(pass *analysis.Pass, site *analysis.CallSite) {
	if site.Kind == analysis.CallBound {
		return
	}
	captured := ""
	if site.Kind == analysis.CallRef {
		captured = " (captured as a function value)"
	}
	for _, key := range site.Targets {
		if name, ok := analysis.IsWallClockKey(key); ok {
			pass.Reportf(site.Pos, "%s%s reads the wall clock in sim-visible code; use %s (virtual time)",
				name, captured, clockAdvice[name])
			return
		}
		if name, ok := analysis.IsGlobalRandKey(key); ok {
			pass.Reportf(site.Pos, "global %s%s is seeded outside the simulation; use the node's "+
				"seeded env.Context.Rand (or a *rand.Rand derived from a config seed)", name, captured)
			return
		}
	}
}

// simVisible reports whether the function with the given node is in
// determinism scope (its package is outside the trusted segments and it
// is not a test helper).
func simVisible(n *analysis.FuncNode) bool {
	return !n.IsTest && !analysis.PathHasSegment(n.Pkg.PkgPath, analysis.TrustedSegments...)
}

// reportSourceTaint reports n when taint arrives from a callee that is
// itself not sim-visible, so n is the first in-scope frame on the chain.
// Direct sources are reportDirect's, and chains that pass through another
// sim-visible function are reported at that deeper function instead,
// keeping one finding per entry point.
func reportSourceTaint(pass *analysis.Pass, prog *analysis.Program, n *analysis.FuncNode, t *analysis.Taint, what string) {
	if !t.Tainted(n) || t.Direct(n) != "" {
		return
	}
	for _, site := range n.Calls {
		for _, key := range site.Targets {
			if callee := prog.Node(key); callee != nil && simVisible(callee) && t.Tainted(callee) {
				return
			}
		}
	}
	pass.Reportf(n.Pos, "%s reaches sim-visible code: %s (via %s)",
		what, n.Obj.Name(), t.Chain(n))
}

// reportMapOrderEmission flags call sites inside map-iteration bodies
// whose resolved targets transitively emit. Sites whose own name is an
// emission (ctx.Send directly in the range body) are reportDirect's.
func reportMapOrderEmission(pass *analysis.Pass, n *analysis.FuncNode, emit *analysis.Taint) {
	for _, site := range n.Calls {
		if site.RangeIdx < 0 || site.Kind == analysis.CallRef || analysis.IsEmissionName(site.Name) {
			continue
		}
		for _, key := range site.Targets {
			if emit.TaintedKey(key) {
				pass.Reportf(site.Pos,
					"call to %s inside map iteration reaches emission (%s): map order becomes sim-visible",
					site.Name, emit.ChainKey(key))
				break
			}
		}
	}
}
