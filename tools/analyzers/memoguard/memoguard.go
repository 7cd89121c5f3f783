// Package memoguard flags a hand-rolled memo on an identity or check
// method. A Hash, Digest or Verify* method that caches its result in a
// receiver field must guard the cache with a crypto.Memo on that
// receiver: a memo guarded by a flag (hashSet, digestSet, a verified
// pointer) travels with every value copy, so a copy whose identity fields
// were edited answers with the original's hash or the original's passed
// check. crypto.Memo is guarded by the holder's address, so a copy
// re-derives.
package memoguard

import (
	"go/ast"
	"go/types"
	"strings"

	"predis/tools/analyzers/analysis"
)

// CryptoPath is the import path of the package that defines Memo.
const CryptoPath = "predis/internal/crypto"

// Analyzer is the memo guard check.
var Analyzer = &analysis.Analyzer{
	Name: "memoguard",
	Doc: "a Hash, Digest or Verify* method that writes a receiver field must " +
		"call a crypto.Memo method on that receiver, so a value copy re-derives",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Syntax {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !guarded(fd.Name.Name) {
				continue
			}
			names := fd.Recv.List[0].Names
			if len(names) == 0 || names[0].Name == "_" {
				continue
			}
			recv := pass.Info.Defs[names[0]]
			var write ast.Expr
			memo := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if write == nil && rootedAt(pass, lhs, recv) {
							write = lhs
						}
					}
				case *ast.IncDecStmt:
					if write == nil && rootedAt(pass, n.X, recv) {
						write = n.X
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isMemo(pass.Info.TypeOf(sel.X)) && rootedAt(pass, sel.X, recv) {
						memo = true
					}
				}
				return true
			})
			if write != nil && !memo {
				pass.Reportf(write.Pos(),
					"%s writes a receiver field without a crypto.Memo on the receiver; "+
						"a value copy would keep the memoized result — guard it with crypto.Memo (Own/Claim)",
					fd.Name.Name)
			}
		}
	}
	return nil
}

// guarded reports whether a method name is an identity or check method.
func guarded(name string) bool {
	return name == "Hash" || name == "Digest" || strings.HasPrefix(name, "Verify")
}

// rootedAt reports whether e is a field, element or dereference path
// (x.a.b, x.s[i], *x) that starts at the receiver variable recv.
func rootedAt(pass *analysis.Pass, e ast.Expr, recv types.Object) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.Ident:
			return recv != nil && pass.Info.Uses[x] == recv
		default:
			return false
		}
	}
}

// isMemo reports whether t is crypto.Memo or a pointer to it.
func isMemo(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Memo" && obj.Pkg() != nil && obj.Pkg().Path() == CryptoPath
}
