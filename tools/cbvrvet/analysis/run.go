package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"cbvr/tools/cbvrvet/directive"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// RunPackage runs the analyzers over one package, applying the
// suppression directives (cbvrvet:ignore), and returns the surviving
// findings sorted by position. A malformed directive (or
// an analyzer error, e.g. an unresolvable lock name in a lockorder
// directive) aborts the run — never silently disables a check.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	dirs, err := directive.ParseFiles(pkg.Fset, pkg.Files)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			Directives: dirs,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if dirs.Ignored(pos, name) {
				return
			}
			out = append(out, Finding{Analyzer: name, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}
