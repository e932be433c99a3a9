package analysis

import "go/ast"

// goroutineOwners are the packages allowed to launch goroutines directly:
// the pool layer itself and the serving layer's single dispatcher /
// lifecycle goroutines. Everywhere else concurrency must go through
// internal/parallel (ForEach/Do for batch fan-out, Pool for
// long-lived queues), which is what carries the repo's bounded-worker and
// bit-identical-reduction guarantees. Command mains that genuinely need a
// lifecycle goroutine (serving an http.Server, overlapping shutdowns)
// suppress case by case with a reason.
var goroutineOwners = []string{"internal/parallel", "internal/server"}

// NakedGo flags `go` statements outside the packages that own concurrency.
//
// Invariant (PR 1): all data-parallel fan-out runs on the shared worker
// pool, so worker counts stay bounded by one knob and reductions stay in
// index order — a stray goroutine reintroduces unbounded spawn and
// nondeterministic accumulation.
var NakedGo = &Analyzer{
	Name: "nakedgo",
	Doc:  "go statements outside internal/parallel and internal/server must use the pool layer",
	Run:  runNakedGo,
}

func runNakedGo(p *Pass) {
	if pathWithinAny(p.Pkg.PkgPath, goroutineOwners) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, isGo := n.(*ast.GoStmt); isGo {
				p.Reportf(g.Pos(), "naked goroutine: use internal/parallel (ForEach or Pool) so worker counts stay bounded and deterministic")
			}
			return true
		})
	}
}
