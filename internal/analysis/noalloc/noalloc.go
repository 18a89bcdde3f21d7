// Package noalloc rejects heap allocation in functions annotated
// //siglint:noalloc — the serving hot path whose zero-alloc steady state
// PR 7's pooled-ticket work bought and whose regression the allocs/op
// benchmarks only catch for the inputs they exercise. The analyzer checks
// every path, at compile time.
//
// Inside an annotated function the following are reported:
//
//   - make, new, &T{...}, slice/map literals, go statements, closures
//     (func literals), method values, string concatenation and
//     string<->[]byte/[]rune conversions;
//   - append (growth reallocates) — amortized-growth appends into a
//     retained buffer are the one legitimate pattern, annotated
//     //siglint:allocok <why>;
//   - defer inside a loop (only straight-line defers are open-coded);
//   - implicit conversion of a non-pointer-shaped, non-constant value to
//     an interface (it boxes): arguments, assignments, returns and sends;
//   - calls to variadic functions that materialize the argument slice;
//   - calls to anything that is not itself //siglint:noalloc, a builtin,
//     or on the allowlist of known non-allocating stdlib surface
//     (sync/atomic, sync locks, math, time's clock reads, runtime's
//     scheduler hints), including any call through an interface or a
//     function value — the analyzer cannot see those callees.
//
// //siglint:allocok <why> on the offending line acknowledges a deliberate,
// audited allocation (cold paths behind a fast-path guard, amortized
// growth). The annotation is the audit trail; the analyzer enforces that
// it exists.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "//siglint:noalloc functions must not heap-allocate on any path",
	Run:  run,
}

func run(pass *analysis.Pass) {
	// Same-package functions that are themselves noalloc are callable.
	noallocFns := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if _, has := analysis.Func(fd, "noalloc"); has {
					noallocFns[pass.TypesInfo.Defs[fd.Name]] = true
				}
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
			if _, has := analysis.Func(fd, "noalloc"); !has {
				continue
			}
			c := &checker{pass: pass, fd: fd, noallocFns: noallocFns}
			c.block(fd.Body, 0)
		}
	}
}

type checker struct {
	pass       *analysis.Pass
	fd         *ast.FuncDecl
	noallocFns map[types.Object]bool
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.pass.OptOut(pos, nil, "allocok") {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// block walks statements tracking loop depth (defers inside loops are not
// open-coded and allocate a record per iteration).
func (c *checker) block(s ast.Stmt, loopDepth int) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			c.block(st, loopDepth)
		}
	case *ast.LabeledStmt:
		c.block(s.Stmt, loopDepth)
	case *ast.IfStmt:
		c.block(s.Init, loopDepth)
		c.expr(s.Cond)
		c.block(s.Body, loopDepth)
		c.block(s.Else, loopDepth)
	case *ast.ForStmt:
		c.block(s.Init, loopDepth)
		c.expr(s.Cond)
		c.block(s.Post, loopDepth)
		c.block(s.Body, loopDepth+1)
	case *ast.RangeStmt:
		c.expr(s.X)
		c.block(s.Body, loopDepth+1)
	case *ast.SwitchStmt:
		c.block(s.Init, loopDepth)
		c.expr(s.Tag)
		c.block(s.Body, loopDepth)
	case *ast.TypeSwitchStmt:
		c.block(s.Init, loopDepth)
		c.block(s.Assign, loopDepth)
		c.block(s.Body, loopDepth)
	case *ast.SelectStmt:
		c.block(s.Body, loopDepth)
	case *ast.CaseClause:
		for _, e := range s.List {
			c.expr(e)
		}
		for _, st := range s.Body {
			c.block(st, loopDepth)
		}
	case *ast.CommClause:
		c.block(s.Comm, loopDepth)
		for _, st := range s.Body {
			c.block(st, loopDepth)
		}
	case *ast.DeferStmt:
		if loopDepth > 0 {
			c.report(s.Pos(), "defer inside a loop allocates a defer record per iteration")
		}
		c.expr(s.Call)
	case *ast.GoStmt:
		c.report(s.Pos(), "go statement allocates a goroutine")
		c.expr(s.Call)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e)
		}
		for _, e := range s.Lhs {
			c.expr(e)
		}
		// Boxing on assignment: iface_lhs = concrete_rhs.
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				c.boxing(s.Rhs[i], c.pass.TypesInfo.TypeOf(s.Lhs[i]))
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e)
		}
		if sig, ok := c.pass.TypesInfo.TypeOf(c.fd.Name).(*types.Signature); ok {
			res := sig.Results()
			if res.Len() == len(s.Results) {
				for i, e := range s.Results {
					c.boxing(e, res.At(i).Type())
				}
			}
		}
	case *ast.SendStmt:
		c.expr(s.Chan)
		c.expr(s.Value)
		if ch, ok := c.pass.TypesInfo.TypeOf(s.Chan).Underlying().(*types.Chan); ok {
			c.boxing(s.Value, ch.Elem())
		}
	case *ast.ExprStmt:
		c.expr(s.X)
	case *ast.IncDecStmt:
		c.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, v := range vs.Values {
						c.expr(v)
						if i < len(vs.Names) {
							c.boxing(v, c.pass.TypesInfo.TypeOf(vs.Names[i]))
						}
					}
				}
			}
		}
	}
}

// expr walks an expression reporting allocation sites.
func (c *checker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.ParenExpr:
		c.expr(e.X)
	case *ast.FuncLit:
		c.report(e.Pos(), "func literal allocates a closure")
		// Do not descend: the closure body runs in its own frame.
	case *ast.CompositeLit:
		c.composite(e, false)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				c.composite(cl, true)
				return
			}
		}
		c.expr(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			if t := c.pass.TypesInfo.TypeOf(e); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					// Constant folding is free; only non-constant concat allocates.
					if tv, ok := c.pass.TypesInfo.Types[e]; !ok || tv.Value == nil {
						c.report(e.Pos(), "string concatenation allocates")
					}
				}
			}
		}
		c.expr(e.X)
		c.expr(e.Y)
	case *ast.CallExpr:
		c.call(e)
	case *ast.SelectorExpr:
		if sel, ok := c.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.MethodVal {
			// x.M used as a value (not called): allocates a bound-method
			// closure. Calls route through c.call and never reach here.
			c.report(e.Pos(), "method value %s allocates a closure", e.Sel.Name)
			return
		}
		c.expr(e.X)
	case *ast.StarExpr:
		c.expr(e.X)
	case *ast.TypeAssertExpr:
		c.expr(e.X)
	case *ast.IndexExpr:
		c.expr(e.X)
		c.expr(e.Index)
	case *ast.SliceExpr:
		c.expr(e.X)
		c.expr(e.Low)
		c.expr(e.High)
		c.expr(e.Max)
	case *ast.KeyValueExpr:
		c.expr(e.Key)
		c.expr(e.Value)
	}
}

// composite reports slice/map composite literals always, and struct/array
// literals only when address-taken (&T{...} escapes to the heap unless the
// compiler proves otherwise — in a noalloc function we require the proof
// to be unnecessary).
func (c *checker) composite(cl *ast.CompositeLit, addrTaken bool) {
	t := c.pass.TypesInfo.TypeOf(cl)
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Slice:
			c.report(cl.Pos(), "slice literal allocates")
		case *types.Map:
			c.report(cl.Pos(), "map literal allocates")
		default:
			if addrTaken {
				c.report(cl.Pos(), "&composite literal allocates")
			}
		}
	}
	for _, el := range cl.Elts {
		c.expr(el)
	}
}

// pointerShaped reports whether a value of type t fits a machine word and
// needs no boxing allocation when stored in an interface.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// boxing reports the implicit conversion of expr to an interface target
// when that conversion must allocate.
func (c *checker) boxing(e ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	tv := c.pass.TypesInfo.Types[e]
	if tv.IsNil() || pointerShaped(tv.Type) {
		return
	}
	c.report(e.Pos(), "implicit conversion of %s to %s allocates (boxing)", tv.Type, target)
}

// isDynamic reports whether fn is an interface method: its callee is chosen
// at run time.
func isDynamic(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// allowedCall reports stdlib surface known not to allocate (or to be the
// very thing being measured, like the clock reads the latency path needs).
// fn is a static call: interface methods were reported before this is asked.
func allowedCall(fn *types.Func) bool {
	// The deny-lists below name package-level constructors; methods with the
	// same name are fine ((time.Time).After is a comparison, time.After is a
	// timer allocation).
	method := fn.Type().(*types.Signature).Recv() != nil
	switch fn.Pkg().Path() {
	case "sync/atomic", "math", "math/bits":
		return true
	case "runtime":
		return true // Gosched, KeepAlive, NumCPU, ...
	case "sync":
		if !method {
			switch fn.Name() {
			case "NewCond", "OnceFunc", "OnceValue", "OnceValues":
				return false
			}
		}
		return true // Mutex/RWMutex/WaitGroup methods, Pool.Get/Put (amortized)
	case "time":
		if !method {
			switch fn.Name() {
			case "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
				return false
			}
		}
		return true // Now/Since/Duration methods: clock reads, no heap
	}
	return false
}

// call checks one call expression.
func (c *checker) call(call *ast.CallExpr) {
	// Type conversions.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		c.conversion(call, tv.Type)
		return
	}
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			c.builtin(call, b.Name())
			return
		}
	}
	fn := analysis.FuncObj(c.pass.TypesInfo, call)
	switch {
	case fn == nil:
		c.report(call.Pos(), "call through a function value: siglint cannot prove the callee does not allocate")
	case isDynamic(fn):
		c.report(call.Pos(), "dynamic call %s through an interface: siglint cannot see the callee", fn.Name())
	case c.noallocFns[fn] || allowedCall(fn):
		// ok
	default:
		c.report(call.Pos(), "call to %s, which is not //siglint:noalloc", fn.FullName())
	}
	// Variadic calls materialize the argument slice.
	if sig, ok := c.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); ok {
		if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
			c.report(call.Pos(), "variadic call allocates the argument slice")
		}
		// Boxing of arguments into interface parameters.
		for i, arg := range call.Args {
			var param types.Type
			if i < sig.Params().Len()-1 || !sig.Variadic() && i < sig.Params().Len() {
				param = sig.Params().At(i).Type()
			} else if sig.Variadic() && call.Ellipsis == token.NoPos && sig.Params().Len() > 0 {
				if sl, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
					param = sl.Elem()
				}
			}
			c.boxing(arg, param)
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		c.expr(sel.X)
	}
	for _, arg := range call.Args {
		c.expr(arg)
	}
}

func (c *checker) builtin(call *ast.CallExpr, name string) {
	switch name {
	case "make":
		c.report(call.Pos(), "make allocates")
	case "new":
		c.report(call.Pos(), "new allocates")
	case "append":
		c.report(call.Pos(), "append may grow its backing array (//siglint:allocok <why> for amortized growth into a retained buffer)")
	case "print", "println":
		c.report(call.Pos(), "%s allocates (and is not for production paths)", name)
	case "panic":
		// The panic path is allowed to allocate: it is the failure path.
		return
	}
	for _, arg := range call.Args {
		c.expr(arg)
	}
}

// conversion checks an explicit type conversion T(x).
func (c *checker) conversion(call *ast.CallExpr, to types.Type) {
	arg := call.Args[0]
	tv := c.pass.TypesInfo.Types[arg]
	fromB, _ := tv.Type.Underlying().(*types.Basic)
	toB, _ := to.Underlying().(*types.Basic)
	fromSl, _ := tv.Type.Underlying().(*types.Slice)
	toSl, _ := to.Underlying().(*types.Slice)
	isStr := func(b *types.Basic) bool { return b != nil && b.Info()&types.IsString != 0 }
	if tv.Value == nil { // constant conversions are free
		switch {
		case isStr(fromB) && toSl != nil, fromSl != nil && isStr(toB):
			c.report(call.Pos(), "string<->slice conversion copies and allocates")
		}
	}
	c.boxing(arg, to)
	c.expr(arg)
}
