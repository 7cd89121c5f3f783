package main

import (
	"bytes"
	"errors"
	"strings"
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

// TestStreamModeOnlyWhereItApplies: -mode stream used to run every
// experiment but quickstart in block mode without a word; now it exits 2
// naming the experiment, before anything runs.
func TestStreamModeOnlyWhereItApplies(t *testing.T) {
	for _, id := range harness.StreamExperiments {
		if _, err := harness.Lookup(id); err != nil {
			t.Errorf("StreamExperiments names %q: %v", id, err)
		}
	}
	quickstart, _ := harness.Lookup("quickstart")
	fig4a, _ := harness.Lookup("fig4a")
	if err := checkMode([]harness.Experiment{quickstart}, true); err != nil {
		t.Errorf("quickstart -mode stream refused: %v", err)
	}
	if err := checkMode([]harness.Experiment{quickstart, fig4a}, false); err != nil {
		t.Errorf("block mode refused: %v", err)
	}
	err := checkMode([]harness.Experiment{quickstart, fig4a}, true)
	if err == nil || !strings.Contains(err.Error(), "fig4a") {
		t.Errorf("fig4a -mode stream: %v, want an error naming fig4a", err)
	}
	for _, argv := range [][]string{{"-mode", "stream", "fig4a"}, {"-quick", "-mode", "stream", "all"}} {
		if code := run(argv); code != 2 {
			t.Errorf("%v exits %d, want 2", argv, code)
		}
	}
}
