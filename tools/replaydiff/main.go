// Command replaydiff is the cross-process determinism gate: it builds
// cmd/predis-bench with the race detector once, then for every target
// runs the experiment in two separate processes — once sequential
// (-parallel 1) and once point-parallel (-parallel 4) — and asserts that
// the delivery replay hash AND the entire terminal output (modulo the
// wall-clock timing lines and scale's machine-cost table) are
// byte-identical. Any leakage of map order, host scheduling or the wall
// clock into simulation results shows up here as a diff, in a different
// process than the one that produced the reference, with the race
// detector watching the whole time.
//
// Usage: go run ./tools/replaydiff [target...]
//
// A target is an experiment id, so `go run ./tools/replaydiff recovery
// quickstream` gates recovery and the streaming-commit quickstart
// schedule. The default target is quickstart. The target `all` (every
// experiment, both commit modes included) additionally diffs the
// sequential transcript, without its replay lines, against the committed
// quick_results.txt (run from the repository root).
//
// Exit status 0 means every target matched and folded at least one
// delivery into its hash; anything else is a failure with the diff on
// stderr.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// timingLine matches predis-bench's per-experiment wall-clock footer.
var timingLine = regexp.MustCompile(`^\([a-z0-9]+ in [0-9.]+s\)$`)

// machineCostTitle opens the scale experiment's wall-clock and RSS table,
// the other legitimately nondeterministic part of the output; it runs to
// the next blank line.
const machineCostTitle = "== Scale: machine cost"

// replayLine captures the "replay <id> <sha256> <n>" line emitted by
// predis-bench -replay.
var replayLine = regexp.MustCompile(`^replay ([a-z0-9]+) ([0-9a-f]{64}) ([0-9]+)$`)

// committedTranscript is `predis-bench -quick all` as committed.
const committedTranscript = "quick_results.txt"

func main() {
	targets := os.Args[1:]
	if len(targets) == 0 {
		targets = []string{"quickstart"}
	}
	if err := run(targets); err != nil {
		fmt.Fprintln(os.Stderr, "replaydiff:", err)
		os.Exit(1)
	}
}

func run(targets []string) error {
	dir, err := os.MkdirTemp("", "replaydiff")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "predis-bench")

	build := exec.Command("go", "build", "-race", "-o", bin, "./cmd/predis-bench")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build -race predis-bench: %w", err)
	}

	var failed []string
	for _, target := range targets {
		if err := check(bin, target); err != nil {
			fmt.Fprintf(os.Stderr, "replaydiff: FAILED %s: %v\n", target, err)
			failed = append(failed, target)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d targets failed: %s", len(failed), len(targets), strings.Join(failed, ", "))
	}
	return nil
}

// check runs one target at -parallel 1 and -parallel 4 and compares.
func check(bin, target string) error {
	var outs, hashes [2]string
	for i, parallel := range []string{"1", "4"} {
		name := "parallel=" + parallel
		cmd := exec.Command(bin, "-quick", "-seed", "1", "-replay", "-parallel", parallel, target)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out := scrub(string(raw))
		hash, n, err := lastReplay(out)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("replaydiff: %s %-10s hash=%s deliveries=%d\n", target, name, hash[:16], n)
		outs[i], hashes[i] = out, hash
	}

	if hashes[0] != hashes[1] {
		return fmt.Errorf("replay hash diverged: %s vs %s", hashes[0], hashes[1])
	}
	if outs[0] != outs[1] {
		fmt.Fprintln(os.Stderr, "--- terminal output diverged ---")
		diffLines(os.Stderr, outs[0], outs[1])
		return fmt.Errorf("terminal output diverged between parallel=1 and parallel=4")
	}
	fmt.Printf("replaydiff: OK — %s is byte-identical across processes at parallel=1 and parallel=4\n", target)

	if target != "all" {
		return nil
	}
	committed, err := os.ReadFile(committedTranscript)
	if err != nil {
		return err
	}
	if got, want := dropReplayLines(outs[0]), scrub(string(committed)); got != want {
		fmt.Fprintf(os.Stderr, "--- output differs from %s (A: committed, B: this run) ---\n", committedTranscript)
		diffLines(os.Stderr, want, got)
		return fmt.Errorf("-quick all no longer prints %s; regenerate it if the change is meant", committedTranscript)
	}
	fmt.Printf("replaydiff: OK — %s matches the -quick all transcript\n", committedTranscript)
	return nil
}

// scrub drops the nondeterministic parts of a transcript: the timing
// footers and the machine-cost table.
func scrub(raw string) string {
	var kept []string
	inMachineCost := false
	for _, line := range strings.Split(raw, "\n") {
		if strings.HasPrefix(line, machineCostTitle) {
			inMachineCost = true
		}
		if inMachineCost {
			inMachineCost = line != ""
			continue
		}
		if !timingLine.MatchString(line) {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// lastReplay extracts the last replay line and requires a non-zero
// delivery count (a hash over nothing proves nothing).
func lastReplay(out string) (hash string, n uint64, err error) {
	for _, line := range strings.Split(out, "\n") {
		if m := replayLine.FindStringSubmatch(line); m != nil {
			hash = m[2]
			fmt.Sscanf(m[3], "%d", &n)
		}
	}
	if hash == "" {
		return "", 0, fmt.Errorf("no replay line in output (is -replay supported for this experiment?)")
	}
	if n == 0 {
		return "", 0, fmt.Errorf("replay trace folded zero deliveries")
	}
	return hash, n, nil
}

// dropReplayLines removes what -replay adds to a transcript.
func dropReplayLines(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "replay ") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// diffLines prints the first few differing lines of two outputs.
func diffLines(w *os.File, a, b string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	shown := 0
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			fmt.Fprintf(w, "line %d:\n  A: %s\n  B: %s\n", i+1, x, y)
			if shown++; shown >= 5 {
				fmt.Fprintln(w, "  ... (further diffs elided)")
				return
			}
		}
	}
}
