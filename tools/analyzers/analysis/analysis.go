// Package analysis is a self-contained, stdlib-only re-implementation of
// the slice of golang.org/x/tools/go/analysis that predis-lint needs: an
// Analyzer value with a Run function over a type-checked package, a Pass
// carrying syntax plus type information, and positioned diagnostics.
//
// The build environment for this repository is hermetic (no module
// downloads), so the real x/tools packages are unavailable; the API here
// mirrors theirs closely enough that the analyzers in ../determinism,
// ../wiresym, ../lockorder, and ../errchecklite could be ported to the
// upstream framework by changing only imports.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the check over one package, reporting findings through
	// pass.Reportf. It returns an error only for operational failures
	// (diagnostics are not errors).
	Run func(pass *Pass) error
}

// Diagnostic is one finding, attributed to an analyzer and a position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries everything an Analyzer.Run needs for one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// PkgPath is the package's import path.
	PkgPath string
	// Syntax holds the parsed files: the package's compiled Go files plus
	// its in-package _test.go files (tests participate so checks like
	// wiresym can verify round-trip coverage).
	Syntax []*ast.File
	// Types is the type-checked package (including test files).
	Types *types.Package
	// Info is the type information for Syntax.
	Info *types.Info

	// lookup resolves a dependency package by import path from the
	// loader's cache (nil when not loaded).
	lookup func(path string) *types.Package

	diags *[]Diagnostic
	prog  func() *Program
}

// Program returns the whole-program interprocedural view (call graph,
// taint engine) over every package of the current Run,
// built lazily on first use and shared by all analyzers of the run.
func (p *Pass) Program() *Program { return p.prog() }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Lookup returns the type-checked dependency with the given import path,
// or nil when the current package does not (transitively) depend on it.
func (p *Pass) Lookup(path string) *types.Package {
	if p.lookup == nil {
		return nil
	}
	return p.lookup(path)
}

// IsTestFile reports whether the given syntax file is a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool {
	name := p.Fset.Position(f.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

// Run executes the analyzers over the loaded packages and returns all
// diagnostics sorted by position. Analyzer errors abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	// One shared whole-program view per run, built only if an analyzer
	// asks for it.
	var prog *Program
	lazyProg := func() *Program {
		if prog == nil {
			prog = NewProgram(pkgs)
		}
		return prog
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				PkgPath:  pkg.PkgPath,
				Syntax:   pkg.Syntax,
				Types:    pkg.Types,
				Info:     pkg.Info,
				lookup:   pkg.lookup,
				diags:    &diags,
				prog:     lazyProg,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// PathHasSegment reports whether any slash-separated segment of the import
// path equals one of the given segments. Analyzers use it for scope rules
// ("everything except rtnet, simnet, env, cmd") that must hold both for
// the real module ("predis/internal/rtnet") and for test fixtures
// ("fixtures/determinism").
func PathHasSegment(path string, segments ...string) bool {
	for _, part := range strings.Split(path, "/") {
		for _, s := range segments {
			if part == s {
				return true
			}
		}
	}
	return false
}
