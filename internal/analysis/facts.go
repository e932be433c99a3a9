package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The fact layer is how analyzers compose without sharing code: an analyzer
// with a global view (a prepass over every package) exports per-function
// facts under a name, and later analyzers import them by declaring the
// producer in Analyzer.Needs. Run orders analyzer execution so every
// producer's Init has completed before a consumer starts, which makes fact
// availability a scheduling guarantee instead of a convention.

// Fact is an arbitrary per-function datum exported by one analyzer and
// imported by others. Concrete fact types live next to their producer.
type Fact interface {
	// FactName namespaces the fact; by convention it is the producing
	// analyzer's name plus a suffix, e.g. "snapshotonce.loader".
	FactName() string
}

type factKey struct {
	fn   *types.Func
	name string
}

// Session is the shared state of one Run over a loaded tree: the packages,
// the cross-package call graph, per-function primitive summaries, and the
// fact store. Every Pass holds a pointer to the session, so an analyzer's
// Run can consult facts produced by the Inits that ran before it.
type Session struct {
	Pkgs  []*Package
	Graph *CallGraph

	facts map[factKey]Fact
	extra map[string]any

	// primLoads records, per declared function, the source positions of
	// direct generation-snapshot loads (atomic.Pointer[modelSet|ring|Set]
	// .Load() on the serving types). It is the seed layer that
	// snapshotonce's Init propagates over the call graph.
	primLoads map[*types.Func][]token.Pos

	// pkgOf finds the *Package that declares a function, for resolving
	// positions and ASTs of cross-package callees.
	pkgOf map[*types.Func]*Package
}

// NewSession loads nothing itself: it indexes already-loaded packages,
// builds the call graph, and computes the primitive summaries that fact
// producers refine.
func NewSession(pkgs []*Package) *Session {
	s := &Session{
		Pkgs:      pkgs,
		Graph:     buildCallGraph(pkgs),
		facts:     map[factKey]Fact{},
		extra:     map[string]any{},
		primLoads: map[*types.Func][]token.Pos{},
		pkgOf:     map[*types.Func]*Package{},
	}
	for _, fn := range s.Graph.Funcs() {
		node := s.Graph.Node(fn)
		s.pkgOf[fn] = node.Pkg
		s.primLoads[fn] = directSnapshotLoads(node.Pkg, node.Decl)
	}
	return s
}

// ExportFact publishes fact for fn. Re-exporting the same fact name for the
// same function overwrites — producers own their namespace.
func (s *Session) ExportFact(fn *types.Func, fact Fact) {
	s.facts[factKey{fn, fact.FactName()}] = fact
}

// ImportFact returns the fact of the given name for fn, or nil if no
// producer exported one.
func (s *Session) ImportFact(fn *types.Func, name string) Fact {
	return s.facts[factKey{fn, name}]
}

// PutData stores analyzer-scoped session state (non-function-keyed
// prepass results) under key; Data retrieves it. Keeping this on the
// session rather than the Analyzer value matters because analyzers are
// process-wide singletons while sessions are per-Run: fixture-tree state
// must not leak into a real-tree run.
func (s *Session) PutData(key string, v any) { s.extra[key] = v }

// Data returns the analyzer-scoped state stored under key, or nil.
func (s *Session) Data(key string) any { return s.extra[key] }

// PackageOf returns the loaded root package declaring fn, or nil for
// functions outside the root set.
func (s *Session) PackageOf(fn *types.Func) *Package { return s.pkgOf[fn] }

// PrimLoads returns the direct generation-load sites in fn's body.
func (s *Session) PrimLoads(fn *types.Func) []token.Pos { return s.primLoads[fn] }

// generationTypes are the named types whose atomic.Pointer cells hold a
// serving generation. A .Load() of one of these is the primitive "pin a
// snapshot" operation the snapshotonce domain counts; scoping by declaring
// package keeps look-alike atomics (e.g. internal/nn's quantized response
// tables) out of the domain. The modelSet entry serves only the
// testdata/internal/server fixture: the real server's generation is the
// registry's engine.Set.
var generationTypes = map[string][]string{
	"modelSet": {"internal/server"},
	"ring":     {"internal/gateway"},
	"Set":      {"internal/engine"},
}

// isGenerationType reports whether t (after pointer stripping) is one of
// the serving-generation named types.
func isGenerationType(t types.Type) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if isNamed {
		obj := n.Obj()
		pkgs, known := generationTypes[obj.Name()]
		if known && obj.Pkg() != nil {
			return pathWithinAny(obj.Pkg().Path(), pkgs)
		}
	}
	return false
}

// isSnapshotLoadCall reports whether call is a direct atomic load of a
// serving generation: a .Load() whose receiver is a sync/atomic.Pointer[T]
// with T a generation type.
func isSnapshotLoadCall(info *types.Info, call *ast.CallExpr) bool {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Load" {
		return false
	}
	selection := info.Selections[sel]
	if selection == nil {
		return false
	}
	recv := selection.Recv()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "sync/atomic" || named.Obj().Name() != "Pointer" {
		return false
	}
	args := named.TypeArgs()
	return args != nil && args.Len() == 1 && isGenerationType(args.At(0))
}

// directSnapshotLoads collects the generation-load call sites lexically
// inside fd, excluding nested function literals: a closure's loads happen
// when the closure runs, and attributing them to the declaring function
// would double-count generations across request paths that never share one.
func directSnapshotLoads(pkg *Package, fd *ast.FuncDecl) []token.Pos {
	var out []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if isCall && isSnapshotLoadCall(pkg.Info, call) {
			out = append(out, call.Pos())
		}
		return true
	})
	return out
}

// orderByNeeds returns analyzers sorted so that every analyzer runs after
// the analyzers it Needs (when those are present in the run set). Missing
// producers are not an error — their Init still runs (Run inits all known
// analyzers), only their diagnostics are skipped — so a subset `-run` keeps
// fact-consuming analyzers functional. Cycles are reported as errors.
func orderByNeeds(analyzers []*Analyzer) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*Analyzer
	state := map[string]int{} // 0 unvisited, 1 in progress, 2 done
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a.Name] {
		case 1:
			return fmt.Errorf("analysis: dependency cycle through %q", a.Name)
		case 2:
			return nil
		}
		state[a.Name] = 1
		for _, need := range a.Needs {
			dep, present := byName[need]
			if present {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[a.Name] = 2
		out = append(out, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}
