package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// scorePackages are the packages whose code can influence a model score:
// the two model families, the tensor kernels under them, the feature
// extractor feeding the tree model (buffered and streaming paths), the
// detector layer, the Shapley explainer, the attack core that consumes
// gradients and oracle scores, the engine driver layer (its
// content-addressed versions must be a pure function of the weights), and
// the eval harness that folds scores into tables. Everything the repo
// reports is a pure function of (seed, corpus, config) only as long as
// these stay deterministic.
var scorePackages = []string{
	"internal/nn",
	"internal/gbdt",
	"internal/tensor",
	"internal/features",
	"internal/detect",
	"internal/shapley",
	"internal/core",
	"internal/engine",
	"internal/eval",
}

// randConstructors are the math/rand package-level functions that build
// generator state rather than draw from the global source; they are how
// the repo threads seeded *rand.Rand values and stay allowed.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// Determinism flags nondeterminism sources in score-affecting packages:
//
//   - global math/rand draws (rand.Intn, rand.Float64, ...): unseeded and
//     process-global; every RNG must be a *rand.Rand threaded from a
//     config seed;
//   - time.Now / time.Since / time.Until: wall-clock reads make scores a
//     function of when they ran;
//   - float accumulation inside map-range bodies: Go randomizes map
//     iteration order, and float addition does not commute bitwise —
//     collect and sort the keys first;
//   - == / != between two non-constant floats: exact equality on computed
//     floats silently diverges across compilers and accumulation orders;
//     comparisons against constants (the `g == 0` skip idiom), dedicated
//     comparison helpers (functions whose name contains Equal, Approx, or
//     Near), and comparator closures (func(int, int) bool, where exact
//     compare-then-tiebreak is what makes a sort deterministic) are
//     exempt.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "score-affecting packages: no global rand, wall-clock reads, map-order float accumulation, or exact float equality",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	if !pathWithinAny(p.Pkg.PkgPath, scorePackages) {
		return
	}
	info := p.Pkg.Info

	forEachFunc(p.Pkg, func(fd *ast.FuncDecl) {
		comparisonHelper := isComparisonHelper(fd.Name.Name)
		comparators := comparatorLits(info, fd)
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				pkgPath, name, ok := pkgFuncCall(info, n)
				if !ok {
					return true
				}
				switch {
				case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[name]:
					p.Reportf(n.Pos(), "global rand.%s draws from the process-wide source: thread a seeded *rand.Rand instead", name)
				case pkgPath == "time" && (name == "Now" || name == "Since" || name == "Until"):
					p.Reportf(n.Pos(), "time.%s in a score-affecting package makes results depend on the wall clock", name)
				}
			case *ast.RangeStmt:
				checkMapRangeAccumulation(p, info, n)
			case *ast.BinaryExpr:
				if comparisonHelper || insideAny(n, comparators) {
					return true
				}
				checkFloatEquality(p, info, n)
			}
			return true
		})
	})
}

// comparatorLits collects func(int, int) bool literals — sort.Slice less
// functions, where exact float compare-then-tiebreak keeps ordering
// deterministic and is therefore allowed.
func comparatorLits(info *types.Info, fd *ast.FuncDecl) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(fd, func(n ast.Node) bool {
		lit, isLit := n.(*ast.FuncLit)
		if !isLit {
			return true
		}
		sig, isSig := info.TypeOf(lit).(*types.Signature)
		if isSig && sig.Params().Len() == 2 && sig.Results().Len() == 1 &&
			types.Identical(sig.Params().At(0).Type(), types.Typ[types.Int]) &&
			types.Identical(sig.Params().At(1).Type(), types.Typ[types.Int]) &&
			types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool]) {
			lits = append(lits, lit)
		}
		return true
	})
	return lits
}

// insideAny reports whether n lies within any of the literals.
func insideAny(n ast.Node, lits []*ast.FuncLit) bool {
	for _, lit := range lits {
		if n.Pos() >= lit.Pos() && n.End() <= lit.End() {
			return true
		}
	}
	return false
}

// isComparisonHelper exempts functions that exist to compare floats —
// tolerance helpers and the exact-parity Equal used by the bit-identity
// tests.
func isComparisonHelper(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "equal") ||
		strings.Contains(lower, "approx") ||
		strings.Contains(lower, "near")
}

// checkMapRangeAccumulation flags compound float accumulation
// (+=, -=, *=, /=) inside the body of a range over a map: iteration order
// is randomized per run, and float folds are order-sensitive at the bit
// level.
func checkMapRangeAccumulation(p *Pass, info *types.Info, rs *ast.RangeStmt) {
	t := info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		assign, isAssign := n.(*ast.AssignStmt)
		if !isAssign {
			return true
		}
		switch assign.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		if len(assign.Lhs) == 1 && isFloat(info.TypeOf(assign.Lhs[0])) {
			p.Reportf(assign.Pos(), "float accumulation over randomized map iteration order is nondeterministic: sort the keys and fold in sorted order")
		}
		return true
	})
}

// checkFloatEquality flags == / != where both operands are computed
// (non-constant) floats.
func checkFloatEquality(p *Pass, info *types.Info, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	if !isFloat(info.TypeOf(b.X)) || !isFloat(info.TypeOf(b.Y)) {
		return
	}
	if info.Types[b.X].Value != nil || info.Types[b.Y].Value != nil {
		return // comparison against a constant (e.g. the `g == 0` skip idiom)
	}
	p.Reportf(b.OpPos, "exact %s between computed floats: use a tolerance helper (or an *Equal parity helper)", b.Op)
}
