package memoguard_test

import (
	"testing"

	"predis/tools/analyzers/analysis"
	"predis/tools/analyzers/memoguard"
)

func TestMemoguardFixture(t *testing.T) {
	analysis.RunFixture(t, "../testdata",
		[]*analysis.Analyzer{memoguard.Analyzer}, "./memoguard")
}
