package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"cbvr/tools/cbvrvet/analysis"
)

// Errvet is the PR 3 errcheck-style storage-durability check, migrated
// from tools/errvet into the multichecker: in the vstore packages, a
// Sync, Close or Truncate call whose error result is dropped — a bare
// statement, a defer, a go statement, or an assignment to blank,
// including inside closures — is flagged. fsyncgate-family durability
// bugs hide behind exactly such calls. Intended drops carry a
// "//cbvrvet:ignore errvet <reason>" directive on the same line or the
// line above.
//
// Unlike the original AST-only tool, the migrated analyzer is
// type-aware: only calls that actually return an error are flagged.
var Errvet = &analysis.Analyzer{
	Name: "errvet",
	Doc: "flag dropped errors of Sync/Close/Truncate calls in the storage " +
		"write path (vstore packages)",
	Run: runErrvet,
}

// errvetScope limits the check to the storage layer; defer f.Close()
// is idiomatic elsewhere.
var errvetScope = regexp.MustCompile(`(^|/)vstore(/|$)`)

// errvetChecked are the method names whose dropped errors are hunted.
var errvetChecked = map[string]bool{"Sync": true, "Close": true, "Truncate": true}

func runErrvet(pass *analysis.Pass) error {
	if !errvetScope.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		// Test cleanup (defer db.Close() and friends) is idiomatic and
		// not the durability write path this analyzer guards; the check
		// covers production vstore code only.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call := errvetCall(pass, st.X); call != nil {
					reportDropped(pass, call, "bare statement")
				}
			case *ast.DeferStmt:
				if call := errvetCall(pass, st.Call); call != nil {
					reportDropped(pass, call, "defer")
				}
			case *ast.GoStmt:
				if call := errvetCall(pass, st.Call); call != nil {
					reportDropped(pass, call, "go statement")
				}
			case *ast.AssignStmt:
				// Only flag when every destination is blank.
				for _, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						return true
					}
				}
				for _, rhs := range st.Rhs {
					if call := errvetCall(pass, rhs); call != nil {
						reportDropped(pass, call, "assigned to blank")
					}
				}
			}
			return true
		})
	}
	return nil
}

func reportDropped(pass *analysis.Pass, call *ast.CallExpr, how string) {
	sel := call.Fun.(*ast.SelectorExpr)
	pass.Reportf(call.Pos(), "%s() error dropped (%s); handle it or annotate //cbvrvet:ignore errvet <reason>", sel.Sel.Name, how)
}

// errvetCall returns the call when expr is a hunted method call whose
// signature returns an error, nil otherwise.
func errvetCall(pass *analysis.Pass, expr ast.Expr) *ast.CallExpr {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !errvetChecked[sel.Sel.Name] {
		return nil
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return nil
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() == 0 {
		return nil
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return nil
	}
	return call
}
