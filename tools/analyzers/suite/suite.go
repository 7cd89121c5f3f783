// Package suite lists every predis-lint analyzer in one place so the
// command, the Makefile target, and the fixture tests agree on the set.
package suite

import (
	"predis/tools/analyzers/analysis"
	"predis/tools/analyzers/detflow"
	"predis/tools/analyzers/encodecache"
	"predis/tools/analyzers/errchecklite"
	"predis/tools/analyzers/handlercomplete"
	"predis/tools/analyzers/hotalloc"
	"predis/tools/analyzers/lockorder"
	"predis/tools/analyzers/memoguard"
	"predis/tools/analyzers/wiresym"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detflow.Analyzer,
		encodecache.Analyzer,
		errchecklite.Analyzer,
		handlercomplete.Analyzer,
		hotalloc.Analyzer,
		lockorder.Analyzer,
		memoguard.Analyzer,
		wiresym.Analyzer,
	}
}

// ByName returns the named analyzers (comma-free names, as listed by
// All); unknown names yield nil entries filtered out by the caller.
func ByName(names []string) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, n := range names {
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
			}
		}
	}
	return out
}
