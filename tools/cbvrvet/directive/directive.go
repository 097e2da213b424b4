// Package directive parses the machine-readable //cbvrvet: comment
// directives the analyzers consume:
//
//	//cbvrvet:lockorder db.mu < stageMu     lock acquisition order
//	//cbvrvet:lockorder noio stageMu        no blocking I/O under a lock
//	//cbvrvet:noalloc                       function must not allocate
//	//cbvrvet:ignore <analyzer> <reason>    suppress one finding
//
// Malformed directives are hard errors carrying the file position, so a typo in a
// directive fails the lint run instead of silently disabling a check.
package directive

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Order documents that Earlier must be acquired before Later.
type Order struct {
	Earlier, Later string
	Pos            token.Position
}

// NoIO documents that no blocking or file-I/O call may run while Lock
// is held.
type NoIO struct {
	Lock string
	Pos  token.Position
}

// Set is the parsed directive state of one package.
type Set struct {
	Orders []Order
	NoIO   []NoIO

	noalloc map[*ast.FuncDecl]bool
	// ignores: file name -> line -> analyzer names suppressed on that
	// line. An ignore covers its own line and the next, so the
	// directive works both trailing a statement and on the line above.
	ignores map[string]map[int]map[string]bool
}

const marker = "cbvrvet:"

// ParseFiles extracts every directive from the files. It returns an
// error naming the position of the first malformed directive.
func ParseFiles(fset *token.FileSet, files []*ast.File) (*Set, error) {
	s := &Set{
		noalloc: make(map[*ast.FuncDecl]bool),
		ignores: make(map[string]map[int]map[string]bool),
	}
	// noalloc directives must be attached to a function declaration's
	// doc comment; collect doc-attached ones first so strays can error.
	attached := make(map[*ast.Comment]bool)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if directiveText(c.Text) == "noalloc" {
					s.noalloc[fd] = true
					attached[c] = true
				}
			}
		}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if err := s.parseComment(fset, c, attached); err != nil {
					return nil, err
				}
			}
		}
	}
	return s, nil
}

// directiveText returns the text after the cbvrvet: marker, or "" when
// the comment is not a directive. Only //-comments in the canonical
// //cbvrvet:... form (no space, like //go:build) count.
func directiveText(text string) string {
	rest, ok := strings.CutPrefix(text, "//"+marker)
	if !ok {
		return ""
	}
	return strings.TrimSpace(rest)
}

func (s *Set) parseComment(fset *token.FileSet, c *ast.Comment, attached map[*ast.Comment]bool) error {
	pos := fset.Position(c.Pos())
	text := directiveText(c.Text)
	if text == "" {
		// A spaced "// cbvrvet:..." is a typo for a directive, not prose;
		// reject it so it cannot silently disable a check. Mid-comment
		// mentions of the marker (docs) are fine.
		if rest, ok := strings.CutPrefix(c.Text, "//"); ok {
			if trimmed := strings.TrimLeft(rest, " \t"); strings.HasPrefix(trimmed, marker) && trimmed != rest {
				return fmt.Errorf("%s: malformed cbvrvet directive %q: must start the comment as //cbvrvet:<verb> with no space", pos, c.Text)
			}
		}
		return nil
	}
	fields := strings.Fields(text)
	verb := fields[0]
	args := fields[1:]
	switch verb {
	case "lockorder":
		return s.parseLockOrder(pos, args)
	case "noalloc":
		if len(args) > 0 {
			return fmt.Errorf("%s: malformed cbvrvet:noalloc directive: takes no arguments, got %q", pos, strings.Join(args, " "))
		}
		if !attached[c] {
			return fmt.Errorf("%s: cbvrvet:noalloc directive must be part of a function's doc comment", pos)
		}
		return nil
	case "ignore":
		if len(args) < 2 {
			return fmt.Errorf("%s: malformed cbvrvet:ignore directive: need an analyzer name and a justification, got %q", pos, text)
		}
		s.addIgnore(pos, args[0])
		return nil
	default:
		return fmt.Errorf("%s: unknown cbvrvet directive verb %q (want lockorder, noalloc or ignore)", pos, verb)
	}
}

// parseLockOrder parses "noio <lock>" or "<lock> < <lock> [< <lock>...]".
func (s *Set) parseLockOrder(pos token.Position, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("%s: malformed cbvrvet:lockorder directive: empty", pos)
	}
	if args[0] == "noio" {
		if len(args) != 2 {
			return fmt.Errorf("%s: malformed cbvrvet:lockorder noio directive: want exactly one lock name, got %q", pos, strings.Join(args[1:], " "))
		}
		s.NoIO = append(s.NoIO, NoIO{Lock: args[1], Pos: pos})
		return nil
	}
	// Alternating lock, "<", lock, "<", lock ...
	if len(args) < 3 || len(args)%2 == 0 {
		return fmt.Errorf("%s: malformed cbvrvet:lockorder directive: want \"lockA < lockB [< lockC ...]\", got %q", pos, strings.Join(args, " "))
	}
	for i := 0; i < len(args); i++ {
		if i%2 == 1 {
			if args[i] != "<" {
				return fmt.Errorf("%s: malformed cbvrvet:lockorder directive: want \"<\" between lock names, got %q", pos, args[i])
			}
			continue
		}
		if args[i] == "<" || strings.ContainsAny(args[i], "<>") {
			return fmt.Errorf("%s: malformed cbvrvet:lockorder directive: bad lock name %q", pos, args[i])
		}
	}
	for i := 0; i+2 < len(args); i += 2 {
		s.Orders = append(s.Orders, Order{Earlier: args[i], Later: args[i+2], Pos: pos})
	}
	return nil
}

func (s *Set) addIgnore(pos token.Position, analyzer string) {
	byLine := s.ignores[pos.Filename]
	if byLine == nil {
		byLine = make(map[int]map[string]bool)
		s.ignores[pos.Filename] = byLine
	}
	for _, line := range [2]int{pos.Line, pos.Line + 1} {
		set := byLine[line]
		if set == nil {
			set = make(map[string]bool)
			byLine[line] = set
		}
		set[analyzer] = true
	}
}

// NoAlloc reports whether fd carries a cbvrvet:noalloc annotation.
func (s *Set) NoAlloc(fd *ast.FuncDecl) bool { return s.noalloc[fd] }

// Ignored reports whether a diagnostic from analyzer at pos is
// suppressed by an ignore directive on the same line or the line above.
func (s *Set) Ignored(pos token.Position, analyzer string) bool {
	return s.ignores[pos.Filename][pos.Line][analyzer]
}
