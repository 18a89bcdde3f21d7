// Package determinism rejects nondeterminism in replay-deterministic
// packages: wall-clock reads, the unseeded global math/rand source, and
// iteration over a map.
//
// The suite's target packages promise bit-identical replay: the same
// submission stream must produce the same decisions, the same merged
// modeled energy and the same emitted orderings at any worker or shard
// count — the repo's reproduction of the paper's determinism claim, and
// the property the cross-shard invariant suite replays at runtime. This
// analyzer proves the *inputs* to those decisions are deterministic on
// every path, not only the paths a test executes.
//
// A package opts in with //siglint:deterministic in its package doc.
// Within such a package (test files excluded):
//
//   - time.Now / time.Since / time.Until are reported unless annotated
//     //siglint:wallclock <why> (line- or func-level): watchdog and
//     latency-measurement code legitimately reads clocks, but must say so
//     where a reviewer can audit it.
//   - Calls to math/rand's (and math/rand/v2's) package-level functions
//     are reported: they draw from the shared, unseeded source. Explicit
//     sources (rand.New(rand.NewSource(seed))) are fine: a seeded source
//     replays.
//   - `for ... range m` over a map is reported: map order is random per
//     run. None of the opted-in packages ranges over a map; iterate a
//     sorted key slice (or an insertion-ordered one, as Runtime.order is).
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, unseeded rand and map iteration in replay-deterministic packages",
	Run:  run,
}

var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) {
	if !pass.Dirs.Package("deterministic") {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkCall(pass, fd, n)
				case *ast.RangeStmt:
					if _, isMap := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "map iteration in replay-deterministic package; map order is random per run (iterate a sorted key slice)")
					}
				}
				return true
			})
		}
	}
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	fn := analysis.FuncObj(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	isPkgLevel := fn.Type().(*types.Signature).Recv() == nil
	switch fn.Pkg().Path() {
	case "time":
		if isPkgLevel && clockFuncs[fn.Name()] {
			if !pass.OptOut(call.Pos(), fd, "wallclock") {
				pass.Reportf(call.Pos(), "wall-clock read time.%s in replay-deterministic package (annotate //siglint:wallclock <why> if this cannot feed a decision)", fn.Name())
			}
		}
	case "math/rand", "math/rand/v2":
		// Package-level functions draw from the global source; explicit
		// constructors (New, NewSource, NewPCG, NewChaCha8, NewZipf) build
		// seeded ones and are the supported spelling.
		if isPkgLevel && !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(call.Pos(), "%s.%s uses the unseeded global source in replay-deterministic package (use rand.New(rand.NewSource(seed)))", fn.Pkg().Name(), fn.Name())
		}
	}
}
