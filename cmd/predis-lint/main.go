// Command predis-lint runs the repository's custom static-analysis suite
// — per-function checks (wiresym, lockorder, errchecklite, encodecache,
// memoguard) plus the analyzers built on the call-graph engine (detflow,
// hotalloc, handlercomplete) — which mechanically enforces the simnet
// determinism contract, the zero-alloc hot-path contract, the
// wire-symmetry invariant and address-guarded memos (see DESIGN.md, "The
// determinism contract" and "Verified once per object").
//
// Standalone (the Makefile's `make lint`):
//
//	go run ./cmd/predis-lint ./...
//	predis-lint -analyzers detflow,wiresym ./internal/...
//	predis-lint -json ./... > findings.json
//
// The named packages are loaded and type-checked from source as one
// program, so the interprocedural analyzers see every call chain that
// stays inside them; run it on ./... for the whole-repo guarantee.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"predis/tools/analyzers/analysis"
	"predis/tools/analyzers/suite"
)

func main() {
	var (
		analyzers = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		list      = flag.Bool("list", false, "list analyzers and exit")
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: predis-lint [-analyzers a,b] [-json] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range suite.All() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	active := suite.All()
	if *analyzers != "" {
		active = suite.ByName(strings.Split(*analyzers, ","))
		if len(active) == 0 {
			fmt.Fprintf(os.Stderr, "predis-lint: no analyzers match %q\n", *analyzers)
			os.Exit(2)
		}
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-lint:", err)
		os.Exit(2)
	}
	os.Exit(runOn(dir, args, active, *jsonOut))
}

// finding is one diagnostic in -json output.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// runOn loads patterns relative to dir, runs the suite, and prints
// diagnostics (text or JSON) on stdout; it returns the process exit code.
func runOn(dir string, patterns []string, active []*analysis.Analyzer, jsonOut bool) int {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-lint:", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, active)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-lint:", err)
		return 2
	}
	if jsonOut {
		// Run already sorts by file/line/col/analyzer, so the array is
		// deterministic for a given repo state.
		fs := make([]finding, 0, len(diags))
		for _, d := range diags {
			fs = append(fs, finding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fs); err != nil {
			fmt.Fprintln(os.Stderr, "predis-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "predis-lint: %d issue(s) in %d package(s)\n",
			len(diags), len(pkgs))
		return 1
	}
	return 0
}
