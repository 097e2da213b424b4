package cbvr_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRepoInvariants holds the repository-shape rules that keep one
// shipping path per job: each subtest names every offender it finds.
func TestRepoInvariants(t *testing.T) {
	// Every job on core.Engine has one ctx-first method. An exported X
	// beside its XCtx twin spells the same job twice. SearchFrame stays
	// while the benchmark module under bench/ still calls it.
	t.Run("One engine method per job", func(t *testing.T) {
		methods := engineMethods(t)
		for name := range methods {
			base, ok := strings.CutSuffix(name, "Ctx")
			if !ok || !methods[base] {
				continue
			}
			if base == "SearchFrame" && benchCalls(t, ".SearchFrame(") {
				continue
			}
			t.Errorf("core.Engine exports both %s and %s", base, name)
		}
	})

	// The commands and examples link only the program; the cbvrvet suite
	// under tools/ runs through `go vet -vettool` or `go run
	// ./tools/cbvrvet`.
	t.Run("No tools/ package in a shipped binary", func(t *testing.T) {
		for _, pkg := range goList(t, "-deps", "./cmd/...", "./examples/...") {
			if strings.HasPrefix(pkg, "cbvr/tools/") {
				t.Errorf("a command or example links %s", pkg)
			}
		}
	})

	// Every per-kind dispatch reads the table in internal/features/kinds.go.
	// A `case` arm or an ==/!= comparison on a Kind constant anywhere else
	// is one more site to edit when a kind is added, dropped or reweighted.
	t.Run("Kind dispatch only in the kind table", func(t *testing.T) {
		for _, site := range kindDispatchSites(t) {
			t.Errorf("%s dispatches on a feature kind outside the kind table", site)
		}
	})

	// Each internal package is linked into a command under cmd/. The one
	// exception is vstore/faultfs, the fault-injecting VFS the storage
	// tests use.
	t.Run("Every internal package ships", func(t *testing.T) {
		shipped := goList(t, "-deps", "./cmd/...")
		var orphans []string
		for _, pkg := range goList(t, "./internal/...") {
			if !slices.Contains(shipped, pkg) {
				orphans = append(orphans, pkg)
			}
		}
		if want := []string{"cbvr/internal/vstore/faultfs"}; !slices.Equal(orphans, want) {
			t.Errorf("internal packages no command links = %q, want %q", orphans, want)
		}
	})
}

// engineMethods returns the set of exported methods declared on *Engine in
// the non-test sources of internal/core.
func engineMethods(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", "core"), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	methods := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || !fn.Name.IsExported() {
					continue
				}
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && id.Name == "Engine" {
						methods[fn.Name.Name] = true
					}
				}
			}
		}
	}
	if !methods["SearchFrameCtx"] {
		t.Fatal("found no SearchFrameCtx method on *core.Engine; is the parse reading internal/core?")
	}
	return methods
}

// kindDispatchSites parses every non-test Go file under the repository
// root, the bench module included, and returns the position of each case
// arm and each ==/!= operand naming a features.Kind constant (KindGLCM and
// its siblings; unqualified inside package features), except in
// internal/features/kinds.go itself.
func kindDispatchSites(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	var sites []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			path == filepath.Join("internal", "features", "kinds.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isKind := func(e ast.Expr) bool {
			name := ""
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && x.Name == "features" {
					name = e.Sel.Name
				}
			case *ast.Ident:
				if file.Name.Name == "features" {
					name = e.Name
				}
			}
			rest, ok := strings.CutPrefix(name, "Kind")
			return ok && rest != "" && rest[0] >= 'A' && rest[0] <= 'Z'
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var operands []ast.Expr
			switch n := n.(type) {
			case *ast.CaseClause:
				operands = n.List
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					operands = []ast.Expr{n.X, n.Y}
				}
			}
			for _, e := range operands {
				if isKind(e) {
					sites = append(sites, fset.Position(e.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sites
}

// benchCalls reports whether any Go file of the benchmark module contains
// call.
func benchCalls(t *testing.T, call string) bool {
	t.Helper()
	found := false
	err := filepath.WalkDir("bench", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		found = found || bytes.Contains(src, []byte(call))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// goList runs `go list` with args from the module root and returns the
// import paths it prints.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return strings.Fields(string(out))
}
