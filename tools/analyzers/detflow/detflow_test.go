package detflow_test

import (
	"testing"

	"predis/tools/analyzers/analysis"
	"predis/tools/analyzers/detflow"
)

// TestDetflowFixture checks the call-graph rules: sources reached only
// by following calls, and the exempt env package.
func TestDetflowFixture(t *testing.T) {
	analysis.RunFixture(t, "../testdata",
		[]*analysis.Analyzer{detflow.Analyzer}, "./detflow", "./detflow/env")
}

// TestDetflowDirectFixture checks the direct rules: each direct source
// is reported at its own position.
func TestDetflowDirectFixture(t *testing.T) {
	analysis.RunFixture(t, "../testdata",
		[]*analysis.Analyzer{detflow.Analyzer}, "./detflow/direct")
}
