// Package poolpair proves that pooled objects are released on every path.
//
// The runtime's zero-alloc claims rest on strict pool discipline: a *Task,
// slab, dispatch scratch, Ticket or pending drawn from a pool must be
// handed back (or handed off) on every path out of the function that drew
// it — including the panic and early-return paths. PR 4 fixed exactly this
// bug by hand in Submit (a validation panic leaked the just-drawn task);
// this analyzer makes the class unrepresentable.
//
// Sources and sinks are declared in source, so the analyzer needs no
// hard-coded knowledge of the repo:
//
//   - //siglint:poolget on a function: calls mint a tracked reference
//     (plus (*sync.Pool).Get, tracked automatically).
//   - //siglint:poolput on a function: passing the object as an argument
//     (or receiver) consumes it (plus (*sync.Pool).Put).
//
// A reference assigned to a local is then walked through the function's
// control flow. The reference is consumed when it is stored (assigned,
// returned, appended, placed in a composite literal) or passed as an
// argument — directly or in a defer — to a poolput function or to a
// dynamically-dispatched interface method (an unverifiable hand-off — the
// runtime's ownership tests own that seam). Any other use is a borrow:
// TaskOption callbacks do not take ownership, which is precisely why the
// PR 4 shape (option applied, then panic) is a detectable leak. Reaching a
// return, an explicit panic or the end of the function while the reference
// may still be held is reported. The hand-offs the runtime does not use —
// a send, a go statement, a closure capture, &v — are not recognised, so
// code that starts using one gets a finding to look at, not a pass.
//
// Precision notes: branches join pessimistically (a leak on one arm is a
// leak), `v == nil` / `v != nil` guards on the tracked reference v are
// understood (the nil arm holds nothing — the sync.Pool.Get idiom), and
// loop bodies are evaluated once (a consume inside a loop is trusted; a
// zero-iteration leak is out of scope). //siglint:leakok <why> at the draw
// site or on the function opts out.
package poolpair

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolpair",
	Doc:  "objects drawn from pools must be released or handed off on every path, including panics",
	Run:  run,
}

func run(pass *analysis.Pass) {
	getters := make(map[types.Object]bool)
	putters := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if _, ok := analysis.Func(fd, "poolget"); ok {
				getters[obj] = true
			}
			if _, ok := analysis.Func(fd, "poolput"); ok {
				putters[obj] = true
			}
		}
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, getters, putters)
		}
	}
}

// isPoolGet reports whether call mints a tracked reference.
func isPoolGet(pass *analysis.Pass, getters map[types.Object]bool, call *ast.CallExpr) bool {
	fn := analysis.FuncObj(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	return getters[fn] || analysis.IsPkgFunc(fn, "sync", "Pool.Get")
}

// trackedAssign matches `v := <get>(...)`, `v = <get>(...)` and the
// comma-ok assert form `v, _ := <get>(...).(*T)`; it returns the local
// object and the draw position.
func trackedAssign(pass *analysis.Pass, getters map[types.Object]bool, as *ast.AssignStmt) (types.Object, token.Pos) {
	if len(as.Rhs) != 1 || len(as.Lhs) < 1 {
		return nil, token.NoPos
	}
	rhs := ast.Unparen(as.Rhs[0])
	if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
		rhs = ast.Unparen(ta.X)
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || !isPoolGet(pass, getters, call) {
		return nil, token.NoPos
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, token.NoPos
	}
	return pass.TypesInfo.ObjectOf(id), call.Pos()
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, getters, putters map[types.Object]bool) {
	var tracks []*checker
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure is its own ownership domain; skip
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if obj, pos := trackedAssign(pass, getters, as); obj != nil {
			if pass.OptOut(pos, fd, "leakok") {
				return true
			}
			tracks = append(tracks, &checker{pass: pass, putters: putters, track: as, obj: obj, drawPos: pos})
		}
		return true
	})
	for _, c := range tracks {
		st, reachable := c.eval(fd.Body.List, stSafe)
		if reachable && st == stHeld {
			c.exit(fd.Body.Rbrace, "the end of the function")
		}
		if c.leakKind != "" {
			pass.Reportf(c.drawPos, "pooled object %q drawn here may reach %s (line %d) without being released (//siglint:leakok <why> if the escape is intended)",
				c.obj.Name(), c.leakKind, pass.Fset.Position(c.leakPos).Line)
		}
	}
}

type state int

const (
	stSafe state = iota // not drawn on this path, or already consumed
	stHeld              // possibly holding an unreleased reference
)

func join(a, b state) state {
	if a == stHeld || b == stHeld {
		return stHeld
	}
	return stSafe
}

// checker walks one function body for one tracked reference.
type checker struct {
	pass     *analysis.Pass
	putters  map[types.Object]bool
	track    *ast.AssignStmt
	obj      types.Object
	drawPos  token.Pos
	leakPos  token.Pos
	leakKind string
}

func (c *checker) exit(pos token.Pos, kind string) {
	if c.leakKind == "" {
		c.leakPos, c.leakKind = pos, kind
	}
}

// eval runs the statement list from st; it returns the fall-through state
// and whether the end of the list is reachable.
func (c *checker) eval(stmts []ast.Stmt, st state) (state, bool) {
	for _, s := range stmts {
		var reachable bool
		st, reachable = c.stmt(s, st)
		if !reachable {
			return st, false
		}
	}
	return st, true
}

func (c *checker) stmt(s ast.Stmt, st state) (state, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if s == c.track {
			return stHeld, true
		}
		// A direct reassignment of the variable ends tracking; any
		// consuming use on either side consumes.
		for _, l := range s.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok && c.isV(id) {
				return stSafe, true
			}
		}
		if c.scanAll(s.Rhs, true) || c.scanAll(s.Lhs, false) {
			return stSafe, true
		}
		return st, true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && c.isPanic(call) {
			if st == stHeld {
				c.exit(s.Pos(), "a panic")
			}
			return st, false
		}
		if c.scan(s.X, false) {
			return stSafe, true
		}
		return st, true
	case *ast.ReturnStmt:
		if c.scanAll(s.Results, true) {
			st = stSafe
		}
		if st == stHeld {
			c.exit(s.Pos(), "a return")
		}
		return st, false
	case *ast.DeferStmt:
		if c.scan(s.Call, false) {
			return stSafe, true
		}
		return st, true
	case *ast.BlockStmt:
		return c.eval(s.List, st)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = c.stmt(s.Init, st)
		}
		thenSt, elseSt := st, st
		// Understand nil guards on the tracked reference: on the nil arm
		// nothing was drawn (the sync.Pool.Get-returned-nil idiom).
		if nilArm, ok := c.nilGuard(s.Cond); ok {
			if nilArm == "then" {
				thenSt = stSafe
			} else {
				elseSt = stSafe
			}
		}
		s1, r1 := c.eval(s.Body.List, thenSt)
		s2, r2 := elseSt, true
		if s.Else != nil {
			s2, r2 = c.stmt(s.Else, elseSt)
		}
		// An arm that cannot fall through ended in an exit that already
		// recorded a leak if it held one, so joining its state changes no
		// finding.
		return join(s1, s2), r1 || r2
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = c.stmt(s.Init, st)
		}
		// Once-through loop semantics (see the package comment).
		bodySt, _ := c.eval(s.Body.List, st)
		return bodySt, true
	case *ast.RangeStmt:
		bodySt, _ := c.eval(s.Body.List, st)
		return bodySt, true
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = c.stmt(s.Init, st)
		}
		return c.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = c.stmt(s.Init, st)
		}
		if s.Assign != nil {
			st, _ = c.stmt(s.Assign, st)
		}
		return c.clauses(s.Body, st)
	case *ast.SelectStmt:
		return c.clauses(s.Body, st)
	default:
		// BranchStmt (break/continue/goto/fallthrough), EmptyStmt: treated
		// as plain fall-through; jump targets are not modeled.
		return st, true
	}
}

// clauses evaluates a switch/select body: the result is the pessimistic
// join of every clause plus, when no clause is guaranteed to run (no
// default), the entry state.
func (c *checker) clauses(body *ast.BlockStmt, st state) (state, bool) {
	out := stSafe
	reachable := false
	hasDefault := false
	for _, cl := range body.List {
		var list []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			list = cl.Body
		case *ast.CommClause:
			entry := st
			if cl.Comm != nil {
				entry, _ = c.stmt(cl.Comm, st)
			} else {
				hasDefault = true
			}
			s, r := c.eval(cl.Body, entry)
			if r {
				out, reachable = join(out, s), true
			}
			continue
		}
		s, r := c.eval(list, st)
		if r {
			out, reachable = join(out, s), true
		}
	}
	if !hasDefault {
		out, reachable = join(out, st), true
	}
	return out, reachable
}

func (c *checker) isV(id *ast.Ident) bool {
	return c.pass.TypesInfo.ObjectOf(id) == c.obj
}

func (c *checker) isPanic(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// nilGuard recognizes `v == nil` / `v != nil` conditions on the tracked
// reference and returns which arm holds nothing.
func (c *checker) nilGuard(cond ast.Expr) (nilArm string, ok bool) {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return "", false
	}
	if id, isID := ast.Unparen(be.X).(*ast.Ident); !isID || !c.isV(id) {
		return "", false
	}
	if tv, found := c.pass.TypesInfo.Types[be.Y]; !found || !tv.IsNil() {
		return "", false
	}
	if be.Op == token.EQL {
		return "then", true // v == nil: then-arm holds nothing
	}
	return "else", true // v != nil: else-arm holds nothing
}

func (c *checker) scanAll(exprs []ast.Expr, consuming bool) bool {
	consumed := false
	for _, e := range exprs {
		if c.scan(e, consuming) {
			consumed = true
		}
	}
	return consumed
}

// scan reports whether e consumes the tracked reference. consuming says
// whether e itself sits in a value-storing position (RHS of an
// assignment, return result, channel send, ...).
func (c *checker) scan(e ast.Expr, consuming bool) bool {
	switch e := e.(type) {
	case nil:
		return false
	case *ast.Ident:
		return consuming && c.isV(e)
	case *ast.SelectorExpr:
		// v.f reads or writes a field of the object: a borrow, never a
		// transfer, whatever position the selector sits in.
		return c.scan(e.X, false)
	case *ast.StarExpr:
		return c.scan(e.X, false)
	case *ast.IndexExpr:
		return c.scan(e.X, false) || c.scan(e.Index, false)
	case *ast.SliceExpr:
		return c.scan(e.X, false) || c.scan(e.Low, false) || c.scan(e.High, false) || c.scan(e.Max, false)
	case *ast.BinaryExpr:
		return c.scan(e.X, false) || c.scan(e.Y, false)
	case *ast.UnaryExpr:
		return c.scan(e.X, false)
	case *ast.CompositeLit:
		return c.scanAll(e.Elts, true)
	case *ast.KeyValueExpr:
		return c.scan(e.Value, consuming) || c.scan(e.Key, false)
	case *ast.CallExpr:
		return c.scanCall(e)
	default:
		return false
	}
}

// scanCall classifies a call's treatment of the tracked reference: passed
// as an argument to a call that transfers ownership, it is consumed; every
// other use is a borrow.
func (c *checker) scanCall(call *ast.CallExpr) bool {
	fn := analysis.FuncObj(c.pass.TypesInfo, call)
	transfers := false
	if fn != nil {
		switch {
		case c.putters[fn], analysis.IsPkgFunc(fn, "sync", "Pool.Put"):
			transfers = true
		default:
			// A dynamically-dispatched method is an unverifiable hand-off
			// (e.g. Policy.Submit takes ownership of the task); a plain
			// static call is a borrow.
			recv := fn.Type().(*types.Signature).Recv()
			transfers = recv != nil && types.IsInterface(recv.Type())
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := c.pass.TypesInfo.Uses[id].(*types.Builtin); isB && b.Name() == "append" {
			transfers = true // appended into a live slice
		}
	}
	if !transfers {
		return false
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && c.isV(id) {
			return true
		}
	}
	return false
}
