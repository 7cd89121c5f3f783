// Interprocedural layer: a whole-program call graph over the packages a
// Run loads, built from syntax + go/types with no SSA. Three edge kinds
// connect function nodes:
//
//   - static: the callee is a known *types.Func (package function,
//     concrete method, or a promoted method resolved through embedding);
//   - bound: the callee is a local variable that was assigned a function
//     value in the same function (f := time.Now; f() — the per-function
//     analyzers provably miss these);
//   - iface: the callee is an interface method, resolved CHA-style to
//     every concrete method of every named type in the loaded packages
//     that implements the interface.
//
// Function literals are merged into their enclosing declared function:
// a closure's calls, allocations, and map ranges belong to the function
// that lexically contains it. This over-approximates (a literal that is
// never invoked still contributes), and it makes closures capturing
// receivers fall out for free.
//
// Value references to functions (taking time.Now or a method value as a
// func value) become ref edges: for taint purposes, capturing a
// forbidden source is as bad as calling it, and the capture site is the
// only place a syntax-level analysis can see it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directive comments recognized by the engine.
const (
	// DirectiveHotPath marks a function as a hot-path root: everything
	// statically reachable from it must not allocate (hotalloc).
	DirectiveHotPath = "predis:hotpath"
	// DirectiveColdPath marks a function as deliberately outside the
	// zero-alloc contract (slow paths, refills, error handling);
	// traversal stops at it.
	DirectiveColdPath = "predis:coldpath"
	// DirectiveAllocOK waives one allocation site (same line).
	DirectiveAllocOK = "predis:allocok"
)

// CallKind classifies one outgoing edge of a function node.
type CallKind uint8

const (
	// CallStatic is a direct call to a known function or concrete method.
	CallStatic CallKind = iota
	// CallBound is a call through a local variable whose function-value
	// assignments were all resolved within the same function.
	CallBound
	// CallIface is an interface method call; Targets holds the CHA
	// resolution over the loaded packages.
	CallIface
	// CallDynamic is a call through a value the engine cannot resolve
	// (parameter, struct field, channel receive, ...). No targets.
	CallDynamic
	// CallRef is not a call: the function's value was taken. For taint
	// the capture counts as a potential call.
	CallRef
)

// CallSite is one outgoing edge (or function-value capture).
type CallSite struct {
	Pos  token.Pos
	Kind CallKind
	// Name is the callee name as written at the site (selector or
	// identifier); emission detection is name-based.
	Name string
	// Targets are resolved callee keys (types.Func FullName). Static and
	// bound sites have exactly the known candidates; iface sites have
	// the CHA set; dynamic sites have none.
	Targets []string
	// IfacePkg is the import path of the package that declares the
	// interface, for iface sites on a named interface ("" otherwise).
	// Policy layers use it to stop at trusted runtime boundaries
	// (env.Context and friends).
	IfacePkg string
	// RangeIdx is the index into the owner's Ranges of the innermost
	// enclosing map-iteration statement, or -1.
	RangeIdx int
}

// AllocKind classifies one potential heap allocation.
type AllocKind string

const (
	AllocComposite   AllocKind = "escaping composite"   // &T{...}, slice/map literal
	AllocMake        AllocKind = "make"                 // make(map/chan/slice)
	AllocNew         AllocKind = "new"                  // new(T)
	AllocBox         AllocKind = "interface boxing"     // concrete non-pointer value -> interface
	AllocStringConv  AllocKind = "string conversion"    // string<->[]byte/[]rune
	AllocConcat      AllocKind = "string concatenation" // s1 + s2
	AllocClosure     AllocKind = "capturing closure"    // func literal with free variables
	AllocMethodValue AllocKind = "method value"         // x.M as a value (boxes receiver)
)

// AllocSite is one potential allocation inside a function.
type AllocSite struct {
	Pos    token.Pos
	Kind   AllocKind
	Detail string
	// Waived is set when the site's line carries a predis:allocok
	// directive.
	Waived bool
}

// MapRange is one `range` statement over a map: its body runs in Go's
// unordered iteration order.
type MapRange struct {
	Pos token.Pos
}

// FuncNode is one declared function or method of a loaded package,
// closures merged in.
type FuncNode struct {
	Key    string // types.Func FullName: pkg-qualified, method receivers included
	Obj    *types.Func
	Pkg    *Package
	Decl   *ast.FuncDecl
	Pos    token.Pos
	IsTest bool // declared in a _test.go file

	HotRoot bool // predis:hotpath
	Cold    bool // predis:coldpath

	Calls  []*CallSite
	Allocs []AllocSite
	Ranges []MapRange
	// Gos are the positions of the function's `go` statements.
	Gos []token.Pos
}

// Program is the whole-program view over one Run's loaded packages.
type Program struct {
	pkgs    []*Package
	nodes   map[string]*FuncNode
	order   []*FuncNode            // deterministic iteration order
	callers map[string][]*FuncNode // callee key -> caller nodes (deduped)
}

// NewProgram builds the call graph over pkgs.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		pkgs:  pkgs,
		nodes: make(map[string]*FuncNode),
	}
	b := &graphBuilder{prog: p}
	for _, pkg := range pkgs {
		b.scanPackage(pkg)
	}
	b.resolveIfaceSites()
	p.finish()
	return p
}

// Node returns the function node with the given key, or nil.
func (p *Program) Node(key string) *FuncNode { return p.nodes[key] }

// FuncOf returns the node for a declared function object, or nil.
func (p *Program) FuncOf(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	return p.nodes[funcKey(obj)]
}

// Nodes returns every function node in deterministic (key) order.
func (p *Program) Nodes() []*FuncNode { return p.order }

// CallersOf returns the nodes with at least one edge to key.
func (p *Program) CallersOf(key string) []*FuncNode { return p.callers[key] }

// finish computes deterministic orders and the reverse edge index.
func (p *Program) finish() {
	p.order = make([]*FuncNode, 0, len(p.nodes))
	for _, n := range p.nodes {
		p.order = append(p.order, n)
	}
	sort.Slice(p.order, func(i, j int) bool { return p.order[i].Key < p.order[j].Key })
	p.callers = make(map[string][]*FuncNode)
	for _, n := range p.order {
		seen := make(map[string]bool)
		for _, c := range n.Calls {
			for _, t := range c.Targets {
				if !seen[t] {
					seen[t] = true
					p.callers[t] = append(p.callers[t], n)
				}
			}
		}
	}
}

// funcKey is the node key for a function object. FullName is stable and
// pkg-qualified: "pkg.F", "(pkg.T).M", "(*pkg.T).M".
func funcKey(obj *types.Func) string { return obj.FullName() }

// PkgOfKey extracts the import path from a node key. Keys take the
// forms "pkg/path.Func", "(pkg/path.T).M", and "(*pkg/path.T).M".
func PkgOfKey(key string) string {
	s := key
	if strings.HasPrefix(s, "(") {
		if end := strings.Index(s, ")"); end > 0 {
			s = s[1:end]
		}
		s = strings.TrimPrefix(s, "*")
	}
	if i := strings.LastIndex(s, "."); i >= 0 {
		s = s[:i]
	}
	return s
}

// --- builder ---

type ifaceSite struct {
	site  *CallSite
	iface *types.Interface
	name  string
}

type graphBuilder struct {
	prog       *Program
	ifaceSites []ifaceSite
	// concrete named types of all loaded packages, for CHA.
	chaTypes []*types.Named
	chaCache map[string][]string
}

func (b *graphBuilder) scanPackage(pkg *Package) {
	// CHA candidate types: every package-level non-interface named type.
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		b.chaTypes = append(b.chaTypes, named)
	}

	for _, f := range pkg.Syntax {
		isTest := pkg.IsTestFile(f)
		waived := allocOKLines(pkg.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &FuncNode{
				Key:    funcKey(obj),
				Obj:    obj,
				Pkg:    pkg,
				Decl:   fd,
				Pos:    fd.Pos(),
				IsTest: isTest,
			}
			n.HotRoot, n.Cold = funcDirectives(fd)
			b.prog.nodes[n.Key] = n
			fs := &funcScanner{b: b, pkg: pkg, node: n, waived: waived, rangeIdx: -1}
			fs.bindLocals(fd.Body)
			fs.scan(fd.Body)
		}
	}
}

// IsTestFile mirrors Pass.IsTestFile for a loaded package.
func (pkg *Package) IsTestFile(f *ast.File) bool {
	name := pkg.Fset.Position(f.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

// funcDirectives reads predis:hotpath / predis:coldpath from a func
// declaration's doc comment.
func funcDirectives(fd *ast.FuncDecl) (hot, cold bool) {
	if fd.Doc == nil {
		return false, false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		switch {
		case strings.HasPrefix(text, DirectiveHotPath):
			hot = true
		case strings.HasPrefix(text, DirectiveColdPath):
			cold = true
		}
	}
	return hot, cold
}

// allocOKLines collects the line numbers carrying predis:allocok.
func allocOKLines(fset *token.FileSet, f *ast.File) map[int]bool {
	out := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, DirectiveAllocOK) {
				out[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

// resolveIfaceSites fills in CHA targets for every interface call site.
func (b *graphBuilder) resolveIfaceSites() {
	b.chaCache = make(map[string][]string)
	for _, is := range b.ifaceSites {
		is.site.Targets = b.chaResolve(is.iface, is.name)
	}
}

// chaResolve returns the keys of every concrete method named name on a
// loaded named type implementing iface, sorted for determinism.
func (b *graphBuilder) chaResolve(iface *types.Interface, name string) []string {
	cacheKey := types.TypeString(iface, nil) + "\x00" + name
	if got, ok := b.chaCache[cacheKey]; ok {
		return got
	}
	seen := make(map[string]bool)
	var out []string
	for _, named := range b.chaTypes {
		recv := types.Type(named)
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), name)
		if fn, ok := obj.(*types.Func); ok {
			key := funcKey(fn)
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
	}
	sort.Strings(out)
	b.chaCache[cacheKey] = out
	return out
}

// funcScanner walks one declared function's body (closures included).
type funcScanner struct {
	b        *graphBuilder
	pkg      *Package
	node     *FuncNode
	waived   map[int]bool
	rangeIdx int
	// bound maps local variables to the function keys assigned to them
	// within this function body.
	bound map[*types.Var][]string
	// litDepth > 0 while inside a func literal (for closure captures).
	litStack []*ast.FuncLit
}

// bindLocals pre-scans the body for `v := fn` / `v = fn` assignments of
// resolvable function values, so later `v()` calls become bound edges.
func (fs *funcScanner) bindLocals(body *ast.BlockStmt) {
	fs.bound = make(map[*types.Var][]string)
	ast.Inspect(body, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			var v *types.Var
			if def, ok := fs.pkg.Info.Defs[id].(*types.Var); ok {
				v = def
			} else if use, ok := fs.pkg.Info.Uses[id].(*types.Var); ok {
				v = use
			}
			if v == nil {
				continue
			}
			if fn := resolveFuncExpr(fs.pkg.Info, as.Rhs[i]); fn != nil {
				fs.bound[v] = append(fs.bound[v], funcKey(fn))
			}
		}
		return true
	})
}

// resolveFuncExpr returns the function object an expression denotes
// (package function, or method value), or nil.
func resolveFuncExpr(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	case *ast.ParenExpr:
		return resolveFuncExpr(info, e.X)
	}
	return nil
}

func (fs *funcScanner) addCall(site *CallSite) {
	site.RangeIdx = fs.rangeIdx
	fs.node.Calls = append(fs.node.Calls, site)
}

func (fs *funcScanner) addAlloc(pos token.Pos, kind AllocKind, detail string) {
	line := fs.pkg.Fset.Position(pos).Line
	fs.node.Allocs = append(fs.node.Allocs, AllocSite{
		Pos:    pos,
		Kind:   kind,
		Detail: detail,
		Waived: fs.waived[line],
	})
}

// scan walks a statement/expression tree collecting call sites, value
// references, allocation sites, and map ranges.
func (fs *funcScanner) scan(n ast.Node) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		fs.scanCall(n)
		return
	case *ast.FuncLit:
		fs.scanFuncLit(n)
		return
	case *ast.RangeStmt:
		fs.scanRange(n)
		return
	case *ast.GoStmt:
		fs.node.Gos = append(fs.node.Gos, n.Pos())
	case *ast.Ident:
		fs.refIdent(n)
		return
	case *ast.SelectorExpr:
		fs.refSelector(n)
		return
	case *ast.CompositeLit:
		fs.scanComposite(n, false)
		return
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if cl, ok := n.X.(*ast.CompositeLit); ok {
				fs.scanComposite(cl, true)
				return
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if tv, ok := fs.pkg.Info.Types[n]; ok {
				if bt, ok := tv.Type.Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 && tv.Value == nil {
					fs.addAlloc(n.Pos(), AllocConcat, "string +")
				}
			}
		}
	case *ast.AssignStmt:
		// Flag boxing on plain assignments var = concrete.
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Rhs {
				fs.checkBox(n.Rhs[i], fs.lhsType(n.Lhs[i]))
			}
		}
	case *ast.ReturnStmt:
		if fs.currentResults() != nil && len(n.Results) == fs.currentResults().Len() {
			for i, r := range n.Results {
				fs.checkBox(r, fs.currentResults().At(i).Type())
			}
		}
	}
	fs.walkChildren(n)
}

func (fs *funcScanner) walkChildren(n ast.Node) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		fs.scan(c)
		return false
	})
}

// currentResults returns the result tuple of the innermost function
// (literal or the declared function) for return-boxing checks.
func (fs *funcScanner) currentResults() *types.Tuple {
	if len(fs.litStack) > 0 {
		lit := fs.litStack[len(fs.litStack)-1]
		if tv, ok := fs.pkg.Info.Types[lit]; ok {
			if sig, ok := tv.Type.(*types.Signature); ok {
				return sig.Results()
			}
		}
		return nil
	}
	if fs.node.Obj != nil {
		return fs.node.Obj.Type().(*types.Signature).Results()
	}
	return nil
}

func (fs *funcScanner) lhsType(e ast.Expr) types.Type {
	if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
		return nil
	}
	if tv, ok := fs.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (fs *funcScanner) scanFuncLit(lit *ast.FuncLit) {
	// Closure capture check: any free variable makes the literal a heap
	// allocation at its creation site.
	if free := freeVars(fs.pkg.Info, lit); len(free) > 0 {
		fs.addAlloc(lit.Pos(), AllocClosure, "captures "+strings.Join(free, ", "))
	}
	fs.litStack = append(fs.litStack, lit)
	fs.walkChildren(lit.Body)
	fs.litStack = fs.litStack[:len(fs.litStack)-1]
}

// freeVars lists the variables a literal references that are declared
// outside it (receivers and enclosing locals; package-level vars do not
// force a closure allocation by themselves but captured locals do —
// package-level objects are excluded).
func freeVars(info *types.Info, lit *ast.FuncLit) []string {
	var out []string
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level variable
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			seen[v] = true
			out = append(out, v.Name())
		}
		return true
	})
	sort.Strings(out)
	return out
}

func (fs *funcScanner) scanRange(rng *ast.RangeStmt) {
	fs.scan(rng.X)
	tv, ok := fs.pkg.Info.Types[rng.X]
	isMap := false
	if ok {
		_, isMap = tv.Type.Underlying().(*types.Map)
	}
	if isMap {
		prev := fs.rangeIdx
		fs.node.Ranges = append(fs.node.Ranges, MapRange{Pos: rng.Pos()})
		fs.rangeIdx = len(fs.node.Ranges) - 1
		fs.walkChildren(rng.Body)
		fs.rangeIdx = prev
		return
	}
	fs.walkChildren(rng.Body)
}

func (fs *funcScanner) scanComposite(cl *ast.CompositeLit, addressed bool) {
	tv, ok := fs.pkg.Info.Types[cl]
	if ok {
		switch tv.Type.Underlying().(type) {
		case *types.Slice, *types.Map:
			fs.addAlloc(cl.Pos(), AllocComposite, types.TypeString(tv.Type, relQualifier(fs.pkg))+" literal")
		default:
			if addressed {
				fs.addAlloc(cl.Pos(), AllocComposite, "&"+types.TypeString(tv.Type, relQualifier(fs.pkg))+"{...}")
			}
		}
	}
	// Elements may contain calls/closures/nested literals.
	for _, el := range cl.Elts {
		fs.scan(el)
	}
}

func relQualifier(pkg *Package) types.Qualifier {
	return func(p *types.Package) string {
		if p == pkg.Types {
			return ""
		}
		return p.Name()
	}
}

func (fs *funcScanner) scanCall(call *ast.CallExpr) {
	info := fs.pkg.Info
	// Conversion? T(x) — flag string<->bytes, then scan the operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			fs.checkStringConv(call, tv.Type)
			fs.scan(call.Args[0])
		}
		return
	}

	// Builtins.
	if id := calleeIdent(call.Fun); id != nil {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				fs.addAlloc(call.Pos(), AllocMake, exprString(call))
			case "new":
				fs.addAlloc(call.Pos(), AllocNew, exprString(call))
			}
			for _, a := range call.Args {
				fs.scan(a)
			}
			return
		}
	}

	site := &CallSite{Pos: call.Pos(), Kind: CallDynamic}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		site.Name = fun.Name
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			site.Kind = CallStatic
			site.Targets = []string{funcKey(obj)}
		case *types.Var:
			if targets := fs.bound[obj]; len(targets) > 0 {
				site.Kind = CallBound
				site.Targets = append([]string(nil), targets...)
			}
		}
	case *ast.SelectorExpr:
		site.Name = fun.Sel.Name
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				site.Kind = CallIface
				if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
					site.IfacePkg = named.Obj().Pkg().Path()
				}
				fs.b.ifaceSites = append(fs.b.ifaceSites, ifaceSite{site: site, iface: iface, name: fun.Sel.Name})
			} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				site.Kind = CallStatic
				site.Targets = []string{funcKey(fn)}
			}
			fs.scan(fun.X) // receiver expression may itself allocate/call
		} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			// Package-qualified function.
			site.Kind = CallStatic
			site.Targets = []string{funcKey(fn)}
		} else {
			// Func-typed struct field or similar: dynamic.
			fs.scan(fun.X)
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: body is merged; no edge needed.
		fs.scanFuncLit(fun)
		site = nil
	default:
		fs.scan(call.Fun)
	}
	if site != nil {
		fs.addCall(site)
	}

	// Arguments: boxing check against parameter types, then recurse.
	var sig *types.Signature
	if tv, ok := info.Types[call.Fun]; ok {
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	for i, a := range call.Args {
		if sig != nil {
			fs.checkBox(a, paramType(sig, i, call.Ellipsis.IsValid()))
		}
		fs.scan(a)
	}
}

func calleeIdent(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// paramType returns the declared type of argument i (variadic-aware).
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		last := params.At(params.Len() - 1).Type()
		if ellipsis {
			return last // passed as a slice, no per-element boxing
		}
		if sl, ok := last.(*types.Slice); ok {
			return sl.Elem()
		}
		return last
	}
	if i < params.Len() {
		return params.At(i).Type()
	}
	return nil
}

// checkBox flags an implicit concrete->interface conversion of a value
// that is not pointer-shaped (pointers, funcs, maps, chans fit in the
// interface word and do not allocate).
func (fs *funcScanner) checkBox(arg ast.Expr, to types.Type) {
	if to == nil {
		return
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := fs.pkg.Info.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	from := tv.Type
	if from == types.Typ[types.UntypedNil] {
		return
	}
	switch from.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Signature, *types.Map, *types.Chan:
		return
	}
	if bt, ok := from.Underlying().(*types.Basic); ok && bt.Kind() == types.UnsafePointer {
		return
	}
	fs.addAlloc(arg.Pos(), AllocBox,
		types.TypeString(from, relQualifier(fs.pkg))+" to "+types.TypeString(to, relQualifier(fs.pkg)))
}

func (fs *funcScanner) checkStringConv(call *ast.CallExpr, to types.Type) {
	tv, ok := fs.pkg.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	from := tv.Type
	if isString(to) && isByteOrRuneSlice(from) {
		fs.addAlloc(call.Pos(), AllocStringConv, "[]byte to string")
	} else if isByteOrRuneSlice(to) && isString(from) {
		fs.addAlloc(call.Pos(), AllocStringConv, "string to []byte")
	}
}

func isString(t types.Type) bool {
	bt, ok := t.Underlying().(*types.Basic)
	return ok && bt.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	bt, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (bt.Kind() == types.Byte || bt.Kind() == types.Rune || bt.Kind() == types.Uint8 || bt.Kind() == types.Int32)
}

// refIdent records a value reference to a function (address taken).
func (fs *funcScanner) refIdent(id *ast.Ident) {
	if fn, ok := fs.pkg.Info.Uses[id].(*types.Func); ok {
		fs.addCall(&CallSite{Pos: id.Pos(), Kind: CallRef, Name: id.Name, Targets: []string{funcKey(fn)}})
	}
}

// refSelector records pkg.Fn / x.Method value references. A method
// value additionally allocates (boxes its receiver).
func (fs *funcScanner) refSelector(sel *ast.SelectorExpr) {
	info := fs.pkg.Info
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
			fs.addCall(&CallSite{Pos: sel.Pos(), Kind: CallRef, Name: sel.Sel.Name, Targets: []string{funcKey(fn)}})
			fs.addAlloc(sel.Pos(), AllocMethodValue, exprString(sel))
		}
		fs.scan(sel.X)
		return
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		fs.addCall(&CallSite{Pos: sel.Pos(), Kind: CallRef, Name: sel.Sel.Name, Targets: []string{funcKey(fn)}})
		return
	}
	fs.scan(sel.X)
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return fmt.Sprintf("%T", e)
	}
}
