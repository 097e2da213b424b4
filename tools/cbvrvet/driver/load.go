// Package driver loads and type-checks packages for the cbvrvet
// analyzers, two ways: standalone (shelling out to `go list -export`,
// used by the cbvrvet CLI and the fixture runner) and as a
// `go vet -vettool` unit checker (unit.go). Both paths use only the
// standard library: dependencies are type-checked from the compiler
// export data the go command already produces, never from source.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"cbvr/tools/cbvrvet/analysis"
)

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` over the patterns and
// decodes the package stream.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExportImporter type-checks imports from compiler export data files.
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return gc.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// newInfo allocates every types.Info map the analyzers may consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:        make(map[ast.Expr]types.TypeAndValue),
		Defs:         make(map[*ast.Ident]types.Object),
		Uses:         make(map[*ast.Ident]types.Object),
		Implicits:    make(map[ast.Node]types.Object),
		Instances:    make(map[*ast.Ident]types.Instance),
		Scopes:       make(map[ast.Node]*types.Scope),
		Selections:   make(map[*ast.SelectorExpr]*types.Selection),
		FileVersions: make(map[*ast.File]string),
	}
}

// typeCheckFiles parses and type-checks one package's files with the
// given importer resolving its dependencies.
func typeCheckFiles(fset *token.FileSet, path string, dir string, goFiles []string, imp types.Importer) (*analysis.Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	tc := &types.Config{Importer: imp}
	tpkg, err := tc.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &analysis.Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// StdExports builds the import-path -> export-data-file map for the
// whole standard library (the only imports fixture packages may use).
// The go command reuses its build cache, so repeat calls are cheap.
func StdExports() (map[string]string, error) {
	listed, err := goList("", []string{"std"})
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// Load lists, parses and type-checks the packages matching the
// patterns (relative to dir; "" means the current directory),
// excluding test files, with dependencies resolved from export data.
func Load(dir string, patterns []string) ([]*analysis.Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	var out []*analysis.Package
	for _, p := range listed {
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		fset := token.NewFileSet()
		pkg, err := typeCheckFiles(fset, p.ImportPath, p.Dir, p.GoFiles, ExportImporter(fset, exports))
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}
