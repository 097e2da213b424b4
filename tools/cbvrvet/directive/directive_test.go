package directive

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc runs ParseFiles over one in-memory file named fix.go.
func parseSrc(t *testing.T, src string) (*Set, *token.FileSet, *ast.File, error) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	s, perr := ParseFiles(fset, []*ast.File{f})
	return s, fset, f, perr
}

func TestParseValidDirectives(t *testing.T) {
	src := `package p

//cbvrvet:lockorder a < b < c
//cbvrvet:lockorder noio b
type T struct{}

//cbvrvet:noalloc
func kernel() {}

func other() {
	//cbvrvet:ignore ctxloop reason goes here
	_ = 1
}
`
	s, _, f, err := parseSrc(t, src)
	if err != nil {
		t.Fatal(err)
	}
	// A three-lock chain emits the two adjacent pairs.
	if len(s.Orders) != 2 {
		t.Fatalf("got %d orders, want 2: %+v", len(s.Orders), s.Orders)
	}
	if s.Orders[0].Earlier != "a" || s.Orders[0].Later != "b" ||
		s.Orders[1].Earlier != "b" || s.Orders[1].Later != "c" {
		t.Errorf("wrong order pairs: %+v", s.Orders)
	}
	if len(s.NoIO) != 1 || s.NoIO[0].Lock != "b" {
		t.Errorf("wrong noio set: %+v", s.NoIO)
	}
	var kernel *ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "kernel" {
			kernel = fd
		}
	}
	if kernel == nil || !s.NoAlloc(kernel) {
		t.Errorf("kernel should carry the noalloc annotation")
	}
	// The ignore covers its own line (11) and the next (12).
	for _, line := range []int{11, 12} {
		if !s.Ignored(token.Position{Filename: "fix.go", Line: line}, "ctxloop") {
			t.Errorf("line %d should be ignored for ctxloop", line)
		}
	}
	if s.Ignored(token.Position{Filename: "fix.go", Line: 13}, "ctxloop") {
		t.Errorf("line 13 should not be ignored for ctxloop")
	}
	// The ignore is per analyzer.
	if s.Ignored(token.Position{Filename: "fix.go", Line: 11}, "noalloc") {
		t.Errorf("ignore for ctxloop must not cover noalloc")
	}
}

func TestMalformedDirectives(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error, which must also carry fix.go:<line>
		line string
	}{
		{
			name: "spaced directive",
			src:  "package p\n\n// cbvrvet:ignore ctxloop oops\nfunc f() {}\n",
			want: "must start the comment as //cbvrvet:<verb> with no space",
			line: "fix.go:3",
		},
		{
			name: "unknown verb",
			src:  "package p\n\n//cbvrvet:frobnicate x\nfunc f() {}\n",
			want: `unknown cbvrvet directive verb "frobnicate"`,
			line: "fix.go:3",
		},
		{
			name: "ignore without justification",
			src:  "package p\n\nfunc f() {\n\t//cbvrvet:ignore ctxloop\n}\n",
			want: "need an analyzer name and a justification",
			line: "fix.go:4",
		},
		{
			name: "lockorder empty",
			src:  "package p\n\n//cbvrvet:lockorder\ntype T struct{}\n",
			want: "malformed cbvrvet:lockorder directive: empty",
			line: "fix.go:3",
		},
		{
			name: "lockorder trailing operator",
			src:  "package p\n\n//cbvrvet:lockorder a < b <\ntype T struct{}\n",
			want: `want "lockA < lockB`,
			line: "fix.go:3",
		},
		{
			name: "lockorder missing operator",
			src:  "package p\n\n//cbvrvet:lockorder a b c\ntype T struct{}\n",
			want: `want "<" between lock names`,
			line: "fix.go:3",
		},
		{
			name: "noio with two locks",
			src:  "package p\n\n//cbvrvet:lockorder noio a b\ntype T struct{}\n",
			want: "want exactly one lock name",
			line: "fix.go:3",
		},
		{
			name: "noalloc with arguments",
			src:  "package p\n\n//cbvrvet:noalloc yes\nfunc f() {}\n",
			want: "takes no arguments",
			line: "fix.go:3",
		},
		{
			name: "stray noalloc",
			src:  "package p\n\nfunc f() {\n\t//cbvrvet:noalloc\n}\n",
			want: "must be part of a function's doc comment",
			line: "fix.go:4",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := parseSrc(t, tc.src)
			if err == nil {
				t.Fatalf("want error containing %q, got none", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.line) {
				t.Errorf("error %q does not carry position %s", err, tc.line)
			}
		})
	}
}

// TestProseMentionsAreNotDirectives pins the parser's tolerance: the
// marker mid-comment (docs talking about directives) is not a
// directive and not an error.
func TestProseMentionsAreNotDirectives(t *testing.T) {
	src := "package p\n\n// The //cbvrvet:lockorder form documents lock order.\nfunc f() {}\n"
	s, _, _, err := parseSrc(t, src)
	if err != nil {
		t.Fatalf("prose mention rejected: %v", err)
	}
	if len(s.Orders) != 0 {
		t.Errorf("prose mention parsed as a directive: %+v", s.Orders)
	}
}
