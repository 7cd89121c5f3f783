package main

import (
	"bytes"
	"errors"
	"testing"

	"predis/internal/harness"
	"predis/internal/stats"
)

// TestRunAllContinuesPastFailure: a failing experiment is reported and
// counted, and the experiments after it still run (`all` used to stop at
// the first failure, which in full mode hid everything after recovery).
func TestRunAllContinuesPastFailure(t *testing.T) {
	var ran []string
	stub := func(id string, err error) harness.Experiment {
		return harness.Experiment{ID: id, Title: id, Run: func(harness.Options) ([]*stats.Table, error) {
			ran = append(ran, id)
			return nil, err
		}}
	}
	var errw bytes.Buffer
	code := runAll([]harness.Experiment{
		stub("first", nil), stub("broken", errors.New("victim stuck")), stub("last", nil),
	}, harness.Options{}, cli{}, &errw)
	if code != 1 {
		t.Errorf("exit code %d with one failure, want 1", code)
	}
	if len(ran) != 3 || ran[2] != "last" {
		t.Errorf("ran %v, want all three", ran)
	}
	if want := "FAILED broken: victim stuck\npredis-bench: 1 of 3 experiments failed: broken\n"; errw.String() != want {
		t.Errorf("reported %q, want %q", errw.String(), want)
	}

	errw.Reset()
	if code := runAll([]harness.Experiment{stub("first", nil), stub("last", nil)}, harness.Options{}, cli{}, &errw); code != 0 || errw.Len() != 0 {
		t.Errorf("exit code %d and %q with no failure, want 0 and nothing", code, errw.String())
	}
}
