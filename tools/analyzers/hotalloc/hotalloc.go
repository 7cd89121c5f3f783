// Package hotalloc implements the hot-path allocation guard. Functions
// carrying a `//predis:hotpath` directive are roots of the zero-alloc
// region the alloc_test.go benchmarks assert over (the simnet event
// queue, the wire encode fast path, the erasure kernels). The analyzer
// walks everything statically reachable from those roots — static calls
// and locally-bound function values, stopping at `//predis:coldpath`
// functions and test helpers — and reports every potential allocation
// site in the region:
//
//   - escaping composites (&T{...}, slice/map literals), make, new
//   - interface boxing of non-pointer-shaped values
//   - string<->[]byte conversions and non-constant string concatenation
//   - capturing closures and method values (which box their receivers)
//
// A single site can be waived with a same-line `//predis:allocok`
// comment (free-list misses, amortized slab refills).
//
// Unlike the runtime benchmarks this is a static guarantee: a new
// allocation anywhere under a hot root fails `make lint` even when no
// benchmark exercises that branch.
package hotalloc

import (
	"predis/tools/analyzers/analysis"
)

// Analyzer is the hot-path allocation guard.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "allocation guard for call trees rooted at //predis:hotpath functions: " +
		"flags composites, boxing, string conversions, and closures that would " +
		"break the zero-alloc contract",
	Run: run,
}

func run(pass *analysis.Pass) error {
	prog := pass.Program()
	var roots []*analysis.FuncNode
	for _, n := range prog.Nodes() {
		if n.HotRoot {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	follow := analysis.AllocFollowIn(prog)
	reached := prog.Reachable(roots, follow)

	for _, n := range prog.Nodes() {
		if n.Pkg.PkgPath != pass.PkgPath {
			continue
		}
		if _, ok := reached[n]; !ok || n.Cold || n.IsTest {
			continue
		}
		for _, a := range n.Allocs {
			if a.Waived {
				continue
			}
			pass.Reportf(a.Pos, "%s (%s) on hot path %s",
				a.Kind, a.Detail, analysis.RootChain(reached, n))
		}
	}
	return nil
}
