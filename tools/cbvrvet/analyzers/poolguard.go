package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cbvr/tools/cbvrvet/analysis"
)

// Poolguard tracks pooled values through each function: a local bound
// to sync.Pool.Get / a *Pool get method / an Acquire* constructor must,
// on every path, be released (Release/release/Free/Recycle on the
// value, or Put/put into a pool), escape (returned, stored into a
// structure, captured, or passed on — ownership transfers), or be
// covered by a deferred release. Using or re-releasing a value after
// its release is an error.
var Poolguard = &analysis.Analyzer{
	Name: "poolguard",
	Doc: "check that pooled values (sync.Pool.Get, Acquire*, pool get methods) " +
		"are released on all return paths and never used after release",
	Run: runPoolguard,
}

type poolState int

const (
	poolLive     poolState = iota // acquired, not yet released
	poolReleased                  // returned to its pool
	poolEscaped                   // ownership left this function (or unknown)
)

// poolVar is one tracked local.
type poolVar struct {
	obj     *types.Var
	acquire token.Pos
	// deferred marks a release registered via defer: the value is
	// covered on every path from that point on.
	deferred bool
}

// poolScope is the per-function-walk state.
type poolScope struct {
	pass   *analysis.Pass
	vars   []*poolVar
	states map[*types.Var]poolState
	// leaked dedups not-released reports per acquisition site.
	leaked map[*types.Var]bool
}

func runPoolguard(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkPoolFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

func checkPoolFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	sc := &poolScope{
		pass:   pass,
		states: make(map[*types.Var]poolState),
		leaked: make(map[*types.Var]bool),
	}
	terminated := sc.walkStmts(body.List)
	if !terminated {
		sc.reportLeaks(body.End())
	}
}

// isPoolType reports whether t (after deref) is a named type whose name
// contains "pool" (sync.Pool, as behind planesPool and scanScratchPool).
func isPoolType(t types.Type) bool {
	named, ok := derefType(t).(*types.Named)
	if !ok {
		return false
	}
	return strings.Contains(strings.ToLower(named.Obj().Name()), "pool")
}

// acquireCall reports whether call yields a pooled value: sync.Pool.Get
// (or any get/Get method on a pool-named type), or an Acquire*/acquire*
// function.
func (sc *poolScope) acquireCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Get" || fun.Sel.Name == "get" {
			if tv, ok := sc.pass.TypesInfo.Types[fun.X]; ok && isPoolType(tv.Type) {
				return true
			}
		}
		return strings.HasPrefix(fun.Sel.Name, "Acquire") || strings.HasPrefix(fun.Sel.Name, "acquire")
	case *ast.Ident:
		return strings.HasPrefix(fun.Name, "Acquire") || strings.HasPrefix(fun.Name, "acquire")
	}
	return false
}

// releaseTarget returns the tracked variable a call releases, or nil:
// x.Release()/x.release()/x.Free()/x.Recycle() release x;
// pool.Put(x)/pool.put(x) and Recycle(x) release x.
func (sc *poolScope) releaseTarget(call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Release", "release", "Free", "free":
		if v := sc.trackedIdent(sel.X); v != nil {
			return v
		}
	case "Put", "put", "Recycle", "recycle":
		if len(call.Args) != 1 {
			return nil
		}
		poolRecv := false
		if tv, ok := sc.pass.TypesInfo.Types[sel.X]; ok && isPoolType(tv.Type) {
			poolRecv = true
		}
		if poolRecv || sel.Sel.Name == "Recycle" || sel.Sel.Name == "recycle" {
			if v := sc.trackedIdent(call.Args[0]); v != nil {
				return v
			}
		}
	}
	return nil
}

// trackedIdent resolves e to a tracked local variable, or nil.
func (sc *poolScope) trackedIdent(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := sc.pass.ObjectOf(id).(*types.Var)
	if !ok {
		return nil
	}
	if _, tracked := sc.states[v]; !tracked {
		return nil
	}
	return v
}

func (sc *poolScope) findVar(v *types.Var) *poolVar {
	for _, pv := range sc.vars {
		if pv.obj == v {
			return pv
		}
	}
	return nil
}

// walkStmts interprets stmts in order; true means every path through
// them returns (or panics).
func (sc *poolScope) walkStmts(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if sc.walkStmt(s) {
			return true
		}
	}
	return false
}

func (sc *poolScope) walkStmt(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		sc.walkAssign(st)
	case *ast.ExprStmt:
		sc.walkExpr(st.X)
	case *ast.DeferStmt:
		sc.walkDefer(st)
	case *ast.GoStmt:
		// The goroutine body runs later; anything it touches escapes.
		sc.escapeAll(st.Call)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			sc.escapeExpr(r)
		}
		sc.reportLeaks(st.Pos())
		return true
	case *ast.IfStmt:
		if st.Init != nil {
			sc.walkStmt(st.Init)
		}
		sc.useExpr(st.Cond)
		thenStates := cloneStates(sc.states)
		thenTerm := sc.walkStmtsIn(&thenStates, st.Body.List)
		elseStates := cloneStates(sc.states)
		elseTerm := false
		if st.Else != nil {
			elseTerm = sc.walkStmtsIn(&elseStates, []ast.Stmt{st.Else})
		}
		sc.states = mergeStates(thenStates, thenTerm, elseStates, elseTerm)
	case *ast.BlockStmt:
		return sc.walkStmts(st.List)
	case *ast.ForStmt:
		if st.Init != nil {
			sc.walkStmt(st.Init)
		}
		if st.Cond != nil {
			sc.useExpr(st.Cond)
		}
		body := cloneStates(sc.states)
		sc.walkStmtsIn(&body, st.Body.List)
		sc.states = mergeStates(sc.states, false, body, false)
	case *ast.RangeStmt:
		sc.useExpr(st.X)
		body := cloneStates(sc.states)
		sc.walkStmtsIn(&body, st.Body.List)
		sc.states = mergeStates(sc.states, false, body, false)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Conservative: walk each case with a cloned state and merge.
		var bodies [][]ast.Stmt
		switch sw := st.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				sc.walkStmt(sw.Init)
			}
			if sw.Tag != nil {
				sc.useExpr(sw.Tag)
			}
			for _, c := range sw.Body.List {
				bodies = append(bodies, c.(*ast.CaseClause).Body)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range sw.Body.List {
				bodies = append(bodies, c.(*ast.CaseClause).Body)
			}
		case *ast.SelectStmt:
			for _, c := range sw.Body.List {
				bodies = append(bodies, c.(*ast.CommClause).Body)
			}
		}
		merged := cloneStates(sc.states)
		mergedTerm := true
		for _, b := range bodies {
			cs := cloneStates(sc.states)
			term := sc.walkStmtsIn(&cs, b)
			if !term {
				merged = mergeStates(merged, mergedTerm, cs, false)
				mergedTerm = false
			}
		}
		if !mergedTerm {
			sc.states = merged
		}
	case *ast.SendStmt:
		sc.escapeExpr(st.Value)
		sc.useExpr(st.Chan)
	case *ast.IncDecStmt:
		sc.useExpr(st.X)
	case *ast.LabeledStmt:
		return sc.walkStmt(st.Stmt)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sc.walkExpr(v)
					}
				}
			}
		}
	}
	return false
}

// walkStmtsIn runs walkStmts against a forked state map.
func (sc *poolScope) walkStmtsIn(states *map[*types.Var]poolState, stmts []ast.Stmt) bool {
	saved := sc.states
	sc.states = *states
	term := sc.walkStmts(stmts)
	*states = sc.states
	sc.states = saved
	return term
}

func cloneStates(m map[*types.Var]poolState) map[*types.Var]poolState {
	out := make(map[*types.Var]poolState, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// mergeStates joins two branch outcomes; a terminated branch
// contributes nothing. A variable whose state differs across live
// branches becomes escaped (unknown), so only definite errors report.
func mergeStates(a map[*types.Var]poolState, aTerm bool, b map[*types.Var]poolState, bTerm bool) map[*types.Var]poolState {
	if aTerm {
		return b
	}
	if bTerm {
		return a
	}
	out := make(map[*types.Var]poolState, len(a))
	for k, av := range a {
		if bv, ok := b[k]; ok && bv == av {
			out[k] = av
		} else {
			out[k] = poolEscaped
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			out[k] = bv
		}
	}
	return out
}

// walkAssign handles acquisitions (x := pool.Get().(*T)) and escapes
// through stores.
func (sc *poolScope) walkAssign(st *ast.AssignStmt) {
	// RHS first (evaluation order).
	acquired := make([]bool, len(st.Rhs))
	for i, rhs := range st.Rhs {
		if call := unwrapAcquire(rhs); call != nil && sc.acquireCall(call) {
			acquired[i] = true
			continue
		}
		sc.walkExpr(rhs)
	}
	for i, lhs := range st.Lhs {
		if i < len(acquired) && acquired[i] && len(st.Lhs) == len(st.Rhs) {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if v, ok := sc.pass.ObjectOf(id).(*types.Var); ok {
					sc.track(v, st.Rhs[i].Pos())
					continue
				}
			}
			continue
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			// Reassigning a tracked variable drops the old value from
			// tracking (aliasing is beyond this analysis).
			if v := sc.trackedIdent(l); v != nil {
				sc.states[v] = poolEscaped
			}
		case *ast.SelectorExpr, *ast.IndexExpr:
			sc.useExpr(lhs)
		case *ast.StarExpr:
			sc.useExpr(l.X)
		}
	}
	// Stores of a tracked value into fields/slices/maps escape it.
	if len(st.Lhs) == len(st.Rhs) {
		for i, lhs := range st.Lhs {
			if acquired[i] {
				continue
			}
			switch lhs.(type) {
			case *ast.SelectorExpr, *ast.IndexExpr:
				sc.escapeExpr(st.Rhs[i])
			}
		}
	}
}

// unwrapAcquire strips type assertions: pool.Get().(*T).
func unwrapAcquire(e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	if call, ok := e.(*ast.CallExpr); ok {
		return call
	}
	return nil
}

func (sc *poolScope) track(v *types.Var, pos token.Pos) {
	sc.states[v] = poolLive
	sc.vars = append(sc.vars, &poolVar{obj: v, acquire: pos})
}

// walkDefer registers deferred releases; any other deferred use of a
// tracked value escapes it (it outlives this walk).
func (sc *poolScope) walkDefer(st *ast.DeferStmt) {
	if v := sc.releaseTarget(st.Call); v != nil {
		if pv := sc.findVar(v); pv != nil {
			pv.deferred = true
		}
		return
	}
	if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
		// A deferred closure releasing a tracked value covers it too.
		covered := false
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if v := sc.releaseTarget(call); v != nil {
					if pv := sc.findVar(v); pv != nil {
						pv.deferred = true
						covered = true
					}
				}
			}
			return true
		})
		if covered {
			return
		}
	}
	sc.escapeAll(st.Call)
}

// walkExpr processes an expression for acquires buried in calls,
// releases, uses and captures.
func (sc *poolScope) walkExpr(e ast.Expr) {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if v := sc.releaseTarget(call); v != nil {
			sc.release(v, call.Pos())
			return
		}
		if sc.acquireCall(call) {
			// Result dropped on the floor: acquired and never bound.
			sc.pass.Reportf(call.Pos(), "pooled value acquired here is discarded without being released")
			return
		}
	}
	sc.useExpr(e)
}

// release transitions v to released, reporting a double release.
func (sc *poolScope) release(v *types.Var, pos token.Pos) {
	switch sc.states[v] {
	case poolReleased:
		sc.pass.Reportf(pos, "%s is released twice (second release here)", v.Name())
	case poolLive:
		sc.states[v] = poolReleased
	}
}

// useExpr scans e for identifier uses of tracked variables: a use of a
// released value is an error; passing a live value to a non-release
// call, capturing it in a function literal, or placing it in a
// composite literal transfers ownership (escapes).
func (sc *poolScope) useExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if v := sc.releaseTarget(x); v != nil {
				sc.release(v, x.Pos())
				// Still scan the receiver side.
				return false
			}
			// Arguments passed to a call: ownership transfer.
			for _, arg := range x.Args {
				if v := sc.trackedIdent(arg); v != nil {
					sc.useOrEscape(v, arg.Pos())
				} else {
					sc.useExpr(arg)
				}
			}
			sc.useExpr(x.Fun)
			return false
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				inner := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					inner = kv.Value
				}
				if v := sc.trackedIdent(inner); v != nil {
					sc.useOrEscape(v, inner.Pos())
				} else {
					sc.useExpr(inner)
				}
			}
			return false
		case *ast.FuncLit:
			// Capture: outer tracked vars referenced inside escape; the
			// literal's own body is a fresh scope walk.
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v := sc.trackedIdent(id); v != nil {
						sc.states[v] = poolEscaped
					}
				}
				return true
			})
			checkPoolFunc(sc.pass, x.Body)
			return false
		case *ast.Ident:
			if v := sc.trackedIdent(x); v != nil && sc.states[v] == poolReleased {
				sc.pass.Reportf(x.Pos(), "%s is used after being released to its pool", v.Name())
			}
		}
		return true
	})
}

// useOrEscape flags use-after-release, else transfers ownership.
func (sc *poolScope) useOrEscape(v *types.Var, pos token.Pos) {
	if sc.states[v] == poolReleased {
		sc.pass.Reportf(pos, "%s is used after being released to its pool", v.Name())
		return
	}
	sc.states[v] = poolEscaped
}

// escapeExpr marks every tracked variable mentioned in e as escaped
// (after flagging released ones).
func (sc *poolScope) escapeExpr(e ast.Expr) {
	if e == nil {
		return
	}
	if v := sc.trackedIdent(e); v != nil {
		sc.useOrEscape(v, e.Pos())
		return
	}
	sc.useExpr(e)
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := sc.trackedIdent(id); v != nil && sc.states[v] == poolLive {
				sc.states[v] = poolEscaped
			}
		}
		return true
	})
}

func (sc *poolScope) escapeAll(call *ast.CallExpr) {
	sc.escapeExpr(call.Fun)
	for _, arg := range call.Args {
		sc.escapeExpr(arg)
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v := sc.trackedIdent(id); v != nil {
					sc.states[v] = poolEscaped
				}
			}
			return true
		})
		checkPoolFunc(sc.pass, fl.Body)
	}
}

// reportLeaks flags every variable still live (and not defer-covered)
// at a function exit, once per acquisition.
func (sc *poolScope) reportLeaks(token.Pos) {
	for _, pv := range sc.vars {
		if sc.states[pv.obj] == poolLive && !pv.deferred && !sc.leaked[pv.obj] {
			sc.leaked[pv.obj] = true
			sc.pass.Reportf(pv.acquire, "pooled value %s acquired here is not released on every return path (release it, defer its release, or hand it off)", pv.obj.Name())
		}
	}
}
