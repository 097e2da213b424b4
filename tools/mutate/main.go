// Command mutate is the suite's mutation runner: it applies a fixed,
// seeded sample of small mutants to shipped code and reports, for each,
// whether it compiles and which tests kill it. It is the evidence a test
// is kept or deleted on (DESIGN.md "Static analysis & enforced
// invariants").
//
//	go run ./tools/mutate                  # every target in the table below
//	go run ./tools/mutate FILE PKG...      # one file against the given test packages
//	go run ./tools/mutate recheck REPORT   # replay a saved report on the tree as it is now
//
// The operators flip a comparison (< <=, > >=, == !=), swap + and - or
// && and ||, drop the last term of a += or -=, and shift a for loop's
// bound by one so it runs one iteration short. Each mutant reaches the
// compiler through `go test -overlay`, so the checkout is never written.
// A mutant is stillborn when it does not compile, survived when every
// test passes, and killed when a test that failed in the full run also
// fails when run alone on it. A test that fails only in the full run
// fails as a cascade of another test's state; a mutant whose failures are
// all cascades is reported as cascade, not killed.
//
// The JSON report goes to stdout and progress to stderr. The exit status
// is 1 when the unmutated baseline fails, a recheck finds a mutant no
// remaining test kills, or the runner itself errors; surviving mutants are
// a finding, not an error.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	// seed fixes the sample: each target's sites are shuffled by seed
	// xor a hash of the file name, so one target's sample does not depend
	// on the others in the list.
	seed = 47
	// perTarget caps the mutants sampled from one file.
	perTarget = 12
	// confirmCap bounds the killers confirmed per mutant, shortest
	// baseline first; failures past it are reported unconfirmed. A
	// cascade does not count against it, so a mutant whose first failures
	// are cascades still gets its real killers confirmed.
	confirmCap = 3
)

// target is one mutated file and the test packages whose tests reach it.
type target struct {
	File string   `json:"file"` // slash path from the module root
	Pkgs []string `json:"pkgs"`
}

var (
	featurePkgs = []string{"./internal/features", "./internal/core"}
	corePkgs    = []string{"./internal/core", "./internal/eval"}
	vstorePkgs  = []string{"./internal/vstore", "./internal/catalog", "./internal/core"}
)

// targets is the full run: the feature kernels and kind table, the
// search path, and vstore's commit path.
var targets = []target{
	{"internal/features/kernels.go", featurePkgs},
	{"internal/features/bounds.go", featurePkgs},
	{"internal/features/kinds.go", featurePkgs},
	{"internal/core/cells.go", corePkgs},
	{"internal/core/traverse.go", corePkgs},
	{"internal/core/search.go", corePkgs},
	{"internal/vstore/db.go", vstorePkgs},
	{"internal/vstore/wal.go", vstorePkgs},
	{"internal/vstore/pager.go", vstorePkgs},
}

// site is one place an operator applies: the source bytes [start, end)
// are replaced by repl.
type site struct {
	desc       string
	pos        token.Position
	start, end int
	repl       string
}

// Mutant is one report row.
type Mutant struct {
	Site   int    `json:"site"` // index among the file's sites, source order
	Pos    string `json:"pos"`
	Desc   string `json:"desc"`
	Status string `json:"status"` // stillborn, survived, cascade, killed
	// Killers failed in the full run and again alone; Cascades failed in
	// the full run only; Unconfirmed failed in the full run and were not
	// re-run (past confirmCap). Names are "importpath:TestName".
	Killers     []string `json:"killers,omitempty"`
	Cascades    []string `json:"cascades,omitempty"`
	Unconfirmed []string `json:"unconfirmed,omitempty"`
}

// TargetReport is one file's sample and results.
type TargetReport struct {
	target
	Sites   int      `json:"sites"`
	Mutants []Mutant `json:"mutants"`
}

// Report is the whole run.
type Report struct {
	Seed      int            `json:"seed"`
	PerTarget int            `json:"per_target"`
	Targets   []TargetReport `json:"targets"`
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) == 0:
		err = mutateAll(".", targets)
	case args[0] == "recheck" && len(args) == 2:
		err = recheckFile(".", args[1])
	case len(args) >= 2 && strings.HasSuffix(args[0], ".go"):
		err = mutateAll(".", []target{{args[0], args[1:]}})
	default:
		fmt.Fprintln(os.Stderr, "usage: mutate [FILE PKG... | recheck REPORT]")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(1)
	}
}

func mutateAll(dir string, ts []target) error {
	rep, err := run(dir, ts, os.Stderr)
	if err != nil {
		return err
	}
	return emit(rep)
}

func recheckFile(dir, path string) error {
	js, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(js, &rep); err != nil {
		return err
	}
	err = recheck(dir, &rep, os.Stderr)
	return errors.Join(emit(&rep), err)
}

// emit writes the per-target counts to stderr and the report to stdout.
func emit(rep *Report) error {
	summarize(os.Stderr, rep)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(rep)
}

// run mutates every target under the module rooted at dir.
func run(dir string, ts []target, log io.Writer) (*Report, error) {
	r, err := newRunner(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.tmp)
	rep := &Report{Seed: seed, PerTarget: perTarget}
	for _, t := range ts {
		src, sites, err := r.sites(t.File)
		if err != nil {
			return nil, err
		}
		base, err := r.baseline(t.Pkgs)
		if err != nil {
			return nil, err
		}
		tr := TargetReport{target: t, Sites: len(sites)}
		for _, i := range sample(t.File, len(sites)) {
			m := r.mutate(t, src, sites[i], base)
			m.Site = i
			fmt.Fprintf(log, "%-9s %s %s %s\n", m.Status, m.Pos, m.Desc, strings.Join(m.Killers, " "))
			tr.Mutants = append(tr.Mutants, m)
		}
		rep.Targets = append(rep.Targets, tr)
	}
	return rep, nil
}

// sample returns the site indexes a file contributes, in source order.
func sample(file string, n int) []int {
	h := fnv.New64a()
	h.Write([]byte(file))
	perm := rand.New(rand.NewSource(seed ^ int64(h.Sum64()))).Perm(n)
	idx := perm[:min(n, perTarget)]
	slices.Sort(idx)
	return idx
}

func summarize(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "%-30s %6s %9s %9s %8s %7s\n", "target", "sites", "stillborn", "survived", "cascade", "killed")
	for _, t := range rep.Targets {
		n := map[string]int{}
		for _, m := range t.Mutants {
			n[m.Status]++
		}
		fmt.Fprintf(w, "%-30s %6d %9d %9d %8d %7d\n", t.File, t.Sites, n["stillborn"], n["survived"], n["cascade"], n["killed"])
	}
}

// runner holds what every go test invocation shares.
type runner struct {
	dir string
	tmp string
	// baselines caches, per package list, the unmutated run: each test's
	// elapsed seconds and the timeout mutated runs get.
	baselines map[string]*baseline
}

type baseline struct {
	elapsed map[string]float64
	timeout time.Duration
}

func newRunner(dir string) (*runner, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "mutate-")
	if err != nil {
		return nil, err
	}
	return &runner{dir: abs, tmp: tmp, baselines: map[string]*baseline{}}, nil
}

// sites parses file and lists every place an operator applies, in
// source order.
func (r *runner) sites(file string) ([]byte, []site, error) {
	src, err := os.ReadFile(filepath.Join(r.dir, file))
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, 0)
	if err != nil {
		return nil, nil, err
	}
	off := func(p token.Pos) int { return fset.Position(p).Offset }
	text := func(n ast.Node) string { return string(src[off(n.Pos()):off(n.End())]) }
	var out []site
	add := func(desc string, at token.Pos, from, to ast.Node, repl string) {
		out = append(out, site{desc: desc, pos: fset.Position(at), start: off(from.Pos()), end: off(to.End()), repl: repl})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if to, ok := swaps[n.Op]; ok {
				// The parentheses keep the mutant's precedence where a swap
				// lowers it (a && b && c with the first && made ||).
				add(n.Op.String()+" → "+to.String(), n.OpPos, n, n,
					"("+text(n.X)+" "+to.String()+" "+text(n.Y)+")")
			}
		case *ast.AssignStmt:
			if (n.Tok != token.ADD_ASSIGN && n.Tok != token.SUB_ASSIGN) || len(n.Rhs) != 1 {
				break
			}
			if b, ok := n.Rhs[0].(*ast.BinaryExpr); ok && (b.Op == token.ADD || b.Op == token.SUB) {
				add("drop "+b.Op.String()+" "+text(b.Y), n.TokPos, b, b, text(b.X))
			} else {
				add("drop "+n.Tok.String()+" "+text(n.Rhs[0]), n.TokPos, n, n, "_ = "+text(n.Rhs[0]))
			}
		case *ast.ForStmt:
			c, ok := n.Cond.(*ast.BinaryExpr)
			if !ok {
				break
			}
			switch c.Op {
			case token.LSS, token.LEQ:
				add("bound "+text(c.Y)+" - 1", c.Y.Pos(), c.Y, c.Y, "("+text(c.Y)+") - 1")
			case token.GTR, token.GEQ:
				add("bound "+text(c.Y)+" + 1", c.Y.Pos(), c.Y, c.Y, "("+text(c.Y)+") + 1")
			}
		}
		return true
	})
	return src, out, nil
}

var swaps = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS,
	token.GTR: token.GEQ, token.GEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL,
	token.ADD: token.SUB, token.SUB: token.ADD,
	token.LAND: token.LOR, token.LOR: token.LAND,
}

// baseline runs pkgs unmutated once per package list. Any failure there
// is an error: a kill means nothing against a red baseline.
func (r *runner) baseline(pkgs []string) (*baseline, error) {
	key := strings.Join(pkgs, " ")
	if b := r.baselines[key]; b != nil {
		return b, nil
	}
	start := time.Now()
	res, err := r.goTest("", 30*time.Minute, "", pkgs)
	if err != nil {
		return nil, err
	}
	if res.buildFailed || len(res.failed) > 0 || len(res.pkgFailed) > 0 {
		return nil, fmt.Errorf("baseline of %s fails: %v %v\n%s", key, res.failed, res.pkgFailed, res.output)
	}
	b := &baseline{elapsed: res.elapsed, timeout: max(time.Minute, 3*time.Since(start))}
	r.baselines[key] = b
	return b, nil
}

// mutate runs one mutant through the full package list, then confirms
// the failing tests alone.
func (r *runner) mutate(t target, src []byte, s site, base *baseline) Mutant {
	m := Mutant{Pos: fmt.Sprintf("%s:%d:%d", filepath.Base(t.File), s.pos.Line, s.pos.Column), Desc: s.desc}
	overlay, err := r.overlay(t.File, src, s)
	if err != nil {
		m.Status = "error: " + err.Error()
		return m
	}
	res, err := r.goTest(overlay, base.timeout, "", t.Pkgs)
	switch {
	case err != nil:
		m.Status = "error: " + err.Error()
		return m
	case res.buildFailed:
		m.Status = "stillborn"
		return m
	}
	failed := slices.Clone(res.failed)
	for _, pkg := range res.pkgFailed {
		// A package that failed outside any named test (an init panic)
		// is killed by whichever of its tests runs first.
		failed = append(failed, pkg+":")
	}
	sort.SliceStable(failed, func(i, j int) bool { return base.elapsed[failed[i]] < base.elapsed[failed[j]] })
	for _, name := range failed {
		if len(m.Killers) >= confirmCap {
			m.Unconfirmed = append(m.Unconfirmed, name)
			continue
		}
		if r.failsAlone(overlay, base.timeout, name) {
			m.Killers = append(m.Killers, name)
		} else {
			m.Cascades = append(m.Cascades, name)
		}
	}
	switch {
	case len(m.Killers) > 0:
		m.Status = "killed"
	case len(failed) > 0:
		m.Status = "cascade"
	default:
		m.Status = "survived"
	}
	return m
}

// failsAlone re-runs one failed test ("importpath:TestName") by itself.
// A package-level failure ("importpath:") re-runs the package with no test.
func (r *runner) failsAlone(overlay string, timeout time.Duration, name string) bool {
	pkg, test, _ := strings.Cut(name, ":")
	pattern := "^$"
	if test != "" {
		pattern = "^" + regexp.QuoteMeta(test) + "$"
	}
	res, err := r.goTest(overlay, timeout, pattern, []string{pkg})
	return err == nil && (res.buildFailed || len(res.failed) > 0 || len(res.pkgFailed) > 0)
}

// overlay writes the mutated file and the -overlay map naming it.
func (r *runner) overlay(file string, src []byte, s site) (string, error) {
	mut := append(append(append([]byte{}, src[:s.start]...), s.repl...), src[s.end:]...)
	mf := filepath.Join(r.tmp, "mutant.go")
	if err := os.WriteFile(mf, mut, 0o644); err != nil {
		return "", err
	}
	js, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(r.dir, file): mf}})
	if err != nil {
		return "", err
	}
	of := filepath.Join(r.tmp, "overlay.json")
	return of, os.WriteFile(of, js, 0o644)
}

// testResult is one go test -json run, test names as "importpath:Name".
type testResult struct {
	buildFailed bool
	failed      []string           // top-level tests that failed, in event order
	pkgFailed   []string           // packages that failed with no test failing
	elapsed     map[string]float64 // top-level test -> seconds
	output      string
}

type event struct {
	Action      string
	Package     string
	Test        string
	Elapsed     float64
	Output      string
	FailedBuild string
}

// goTest runs go test -json over pkgs, under an overlay when one is given.
func (r *runner) goTest(overlay string, timeout time.Duration, runPattern string, pkgs []string) (*testResult, error) {
	args := []string{"test", "-count=1", "-json", "-vet=off", "-timeout", timeout.String()}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	if runPattern != "" {
		args = append(args, "-run", runPattern)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout+2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append(args, pkgs...)...)
	cmd.Dir = r.dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, err
	}
	res := &testResult{elapsed: map[string]float64{}}
	failedTest := map[string]bool{}
	running := map[string]bool{} // top-level tests started and not finished
	var all strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var ev event
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			all.Write(sc.Bytes())
			all.WriteByte('\n')
			continue
		}
		name := ev.Package + ":" + ev.Test
		switch ev.Action {
		case "build-fail":
			res.buildFailed = true
		case "output":
			all.WriteString(ev.Output)
			if strings.Contains(ev.Output, "[build failed]") || strings.Contains(ev.Output, "[setup failed]") {
				res.buildFailed = true
			}
		case "run":
			if ev.Test != "" && !strings.Contains(ev.Test, "/") {
				running[name] = true
			}
		case "skip":
			delete(running, name)
		case "pass", "fail":
			if ev.FailedBuild != "" {
				res.buildFailed = true
			}
			if ev.Test != "" && !strings.Contains(ev.Test, "/") {
				delete(running, name)
				res.elapsed[name] = ev.Elapsed
				if ev.Action == "fail" && !failedTest[name] {
					failedTest[name] = true
					res.failed = append(res.failed, name)
				}
			}
			if ev.Test == "" && ev.Action == "fail" && !res.buildFailed && !anyIn(failedTest, ev.Package) {
				// A binary that dies mid-test (a timeout, a panic in a
				// goroutine) reports no test failure: the tests it
				// interrupted are the candidates.
				var cut []string
				for n := range running {
					if strings.HasPrefix(n, ev.Package+":") {
						cut = append(cut, n)
					}
				}
				slices.Sort(cut)
				if len(cut) == 0 {
					res.pkgFailed = append(res.pkgFailed, ev.Package)
				}
				for _, n := range cut {
					if !failedTest[n] {
						failedTest[n] = true
						res.failed = append(res.failed, n)
					}
				}
			}
		}
	}
	if stderr.Len() > 0 {
		all.WriteString(stderr.String())
		if strings.Contains(stderr.String(), "[build failed]") || strings.Contains(stderr.String(), "[setup failed]") {
			res.buildFailed = true
		}
	}
	res.output = all.String()
	if exit != nil && !res.buildFailed && len(res.failed) == 0 && len(res.pkgFailed) == 0 {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, res.output)
	}
	return res, nil
}

func anyIn(failed map[string]bool, pkg string) bool {
	for n := range failed {
		if strings.HasPrefix(n, pkg+":") {
			return true
		}
	}
	return false
}

// recheck replays a saved report against the tree as it is now. A killed
// mutant is re-killed cheaply: the first of its killers that still exists
// must fail alone; failing that, it is run in full like a new mutant.
// Survived and cascade mutants are run in full, so a test added since the
// report shows as a kill. A mutant killed in the report and not now is an
// error.
func recheck(dir string, rep *Report, log io.Writer) error {
	r, err := newRunner(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(r.tmp)
	var lost []string
	for ti := range rep.Targets {
		t := &rep.Targets[ti]
		src, sites, err := r.sites(t.File)
		if err != nil {
			return err
		}
		base, err := r.baseline(t.Pkgs)
		if err != nil {
			return err
		}
		for mi := range t.Mutants {
			m := &t.Mutants[mi]
			if m.Status == "stillborn" {
				continue
			}
			if m.Site >= len(sites) || sites[m.Site].desc != m.Desc {
				return fmt.Errorf("%s site %d is no longer %q: the file changed since the report", t.File, m.Site, m.Desc)
			}
			overlay, err := r.overlay(t.File, src, sites[m.Site])
			if err != nil {
				return err
			}
			site, was, by := m.Site, m.Status, ""
			if was == "killed" {
				for _, k := range m.Killers {
					if _, ok := base.elapsed[k]; ok && r.failsAlone(overlay, base.timeout, k) {
						by = k
						break
					}
				}
			}
			if by != "" {
				*m = Mutant{Pos: m.Pos, Desc: m.Desc, Status: "killed", Killers: []string{by}}
			} else {
				*m = r.mutate(t.target, src, sites[site], base)
			}
			m.Site = site
			fmt.Fprintf(log, "%-9s %s %s %s\n", m.Status, m.Pos, m.Desc, strings.Join(m.Killers, " "))
			if was == "killed" && m.Status != "killed" {
				lost = append(lost, m.Pos+" "+m.Desc)
			}
		}
	}
	if len(lost) > 0 {
		return fmt.Errorf("%d mutants killed in the report are no longer killed: %v", len(lost), lost)
	}
	return nil
}
