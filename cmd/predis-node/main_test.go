package main

import "testing"

// TestBadCommandLine: a system the paper does not name, or an id outside
// the group, is a usage error (exit 2) before anything binds.
func TestBadCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "bogus"},
		{"-id", "4", "-n", "4"},
		{"-peers", "x"},
	} {
		if got := run(args); got != 2 {
			t.Errorf("predis-node %v: exit %d, want 2", args, got)
		}
	}
}
