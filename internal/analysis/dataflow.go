package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The dataflow engine is an intraprocedural forward abstract interpreter
// over the repo's serving-tier domain. It owns the transfer function — how
// abstract values originate and propagate — and analyzers are pure
// consumers: they register a visit hook, read the state the engine hands
// them at each node, and report. Centralizing the semantics keeps the four
// dataflow analyzers (snapshotonce, mutexguard, versionkey, failclosed)
// from growing four slightly-different interpreters of the same code.
//
// The abstract domain is small and repo-specific:
//
//	SrcSnapshot    — the value is a pinned serving generation (*engine.Set,
//	                 *gateway ring, and the fixture tree's *modelSet) from
//	                 an atomic load or a loader function (snapshotonce
//	                 facts).
//	SrcCtx         — derived from the caller's context.Context.
//	SrcErrTainted  — produced alongside an error that has not yet been
//	                 checked on this path; cleared by an `err == nil`
//	                 refinement.
//	SrcVersion     — derived from a model/set version (a .version field or
//	                 Version() method of a generation type).
//	SrcContentHash — derived from a content digest (sha256.Sum256, or a
//	                 hash.Hash Sum into a caller buffer).
//
// Lock-held regions are path state rather than value state: flowState.held
// tracks the must-held set of canonical mutex paths ("r.mu", "h.reg.mu").
// Merges union value sources (may-analysis) and intersect held locks
// (must-analysis) — exactly the directions that make each consumer sound
// for its purpose: a value *may* be tainted, a lock *must* be held.

type absValue uint16

const (
	SrcSnapshot absValue = 1 << iota
	SrcCtx
	SrcErrTainted
	SrcVersion
	SrcContentHash
)

// flowState is the abstract state at one program point.
type flowState struct {
	vals    map[types.Object]absValue
	errDeps map[types.Object][]types.Object // error var -> values it taints
	held    map[string]bool                 // must-held canonical mutex paths
	loads   []token.Pos                     // snapshot-load sites that may precede this point
}

func newFlowState() *flowState {
	return &flowState{
		vals:    map[types.Object]absValue{},
		errDeps: map[types.Object][]types.Object{},
		held:    map[string]bool{},
	}
}

func (s *flowState) clone() *flowState {
	c := newFlowState()
	for k, v := range s.vals {
		c.vals[k] = v
	}
	for k, v := range s.errDeps {
		c.errDeps[k] = append([]types.Object(nil), v...)
	}
	for k, v := range s.held {
		c.held[k] = v
	}
	c.loads = append([]token.Pos(nil), s.loads...)
	return c
}

// Held reports whether the canonical mutex path is held on every path
// reaching this point.
func (s *flowState) Held(path string) bool { return s.held[path] }

// Loads returns the snapshot-load sites that may already have executed on
// some path reaching this point, in discovery order.
func (s *flowState) Loads() []token.Pos { return s.loads }

// merge folds b into a: value sources union, held locks intersect, load
// sites union (order-preserving).
func (s *flowState) merge(b *flowState) {
	for k, v := range b.vals {
		s.vals[k] |= v
	}
	for k, deps := range b.errDeps {
	next:
		for _, d := range deps {
			for _, have := range s.errDeps[k] {
				if have == d {
					continue next
				}
			}
			s.errDeps[k] = append(s.errDeps[k], d)
		}
	}
	for k := range s.held {
		if !b.held[k] {
			delete(s.held, k)
		}
	}
	for _, p := range b.loads {
		s.addLoad(p)
	}
}

func (s *flowState) addLoad(p token.Pos) {
	for _, have := range s.loads {
		if have == p {
			return
		}
	}
	s.loads = append(s.loads, p)
}

func (s *flowState) equal(b *flowState) bool {
	if len(s.vals) != len(b.vals) || len(s.held) != len(b.held) || len(s.loads) != len(b.loads) {
		return false
	}
	for k, v := range s.vals {
		if b.vals[k] != v {
			return false
		}
	}
	for k := range s.held {
		if !b.held[k] {
			return false
		}
	}
	for i, p := range s.loads {
		if b.loads[i] != p {
			return false
		}
	}
	return true
}

// clearErr removes the error taint that errObj's check resolves: on the
// `err == nil` side of a branch the values produced alongside errObj are
// known good.
func (s *flowState) clearErr(errObj types.Object) {
	for _, dep := range s.errDeps[errObj] {
		s.vals[dep] &^= SrcErrTainted
	}
	delete(s.errDeps, errObj)
}

// flowCtx is the engine handle passed to analyzer visit hooks.
type flowCtx struct {
	Sess *Session
	Pkg  *Package
	Fn   *ast.FuncDecl // enclosing declared function
	Lit  *ast.FuncLit  // non-nil when analyzing a function literal's body
	f    *flow
}

// Value returns the abstract value the engine computed for an expression
// already evaluated in the current function (zero for unevaluated nodes).
func (c *flowCtx) Value(e ast.Expr) absValue { return c.f.exprVals[e] }

// flowConfig configures one engine run over a package.
type flowConfig struct {
	// visit is called in evaluation order: for statements after their
	// immediate expressions are evaluated, and for selector, call, and
	// composite-literal expressions with the state at that point (calls:
	// before the call's own effects apply, so st.Loads() excludes the call
	// itself). Loop bodies re-visit on each fixpoint iteration; report
	// dedup happens in Run.
	visit func(c *flowCtx, n ast.Node, st *flowState)
	// errSource reports whether a multi-result call's non-error results
	// should carry SrcErrTainted until the error is checked. nil seeds no
	// error taint.
	errSource func(pkg *Package, call *ast.CallExpr) bool
	// loaderResult reports, for a resolved static callee, whether its
	// results of generation type are snapshots and the call is itself a
	// load event (fact import from snapshotonce). nil limits load events
	// to primitive atomic loads.
	loaderResult func(fn *types.Func) bool
}

// runFlow interprets every declared function in pkg (and, separately, each
// function literal encountered) under cfg.
func runFlow(sess *Session, pkg *Package, cfg *flowConfig) {
	forEachFunc(pkg, func(fd *ast.FuncDecl) {
		f := &flow{sess: sess, pkg: pkg, cfg: cfg, exprVals: map[ast.Expr]absValue{}}
		ctx := &flowCtx{Sess: sess, Pkg: pkg, Fn: fd, f: f}
		st := newFlowState()
		seedParams(pkg, fd.Type, st)
		seedHeld(pkg, fd, st)
		f.ctx = ctx
		f.block(st, fd.Body)
		// Literal bodies run later, under whatever function invokes them:
		// captured value taints carry over, but lock-held state and the
		// load count restart (a closure is its own request-scoped path).
		for len(f.lits) > 0 {
			lit := f.lits[0]
			f.lits = f.lits[1:]
			litSt := st.clone()
			litSt.held = map[string]bool{}
			litSt.loads = nil
			seedParams(pkg, lit.Type, litSt)
			f.ctx = &flowCtx{Sess: sess, Pkg: pkg, Fn: fd, Lit: lit, f: f}
			f.block(litSt, lit.Body)
		}
	})
}

// seedParams marks context.Context parameters as ctx-derived.
func seedParams(pkg *Package, ft *ast.FuncType, st *flowState) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := pkg.Info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				st.vals[obj] = SrcCtx
			}
		}
	}
}

func isContextType(t types.Type) bool {
	n, isNamed := t.(*types.Named)
	return isNamed && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// seedHeld grants the caller-holds-the-lock contract to functions that
// declare it: a method named with the `...Locked` suffix (repo convention:
// caller holds the receiver's mutex), or an explicit `//mpass:locked <mu>`
// pragma naming one mutex field.
func seedHeld(pkg *Package, fd *ast.FuncDecl, st *flowState) {
	recvName, recvType := receiverOf(pkg, fd)
	if recvName == "" {
		return
	}
	var grant []string
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		grant = mutexFields(recvType)
	} else if mu := lockedPragma(fd.Doc); mu != "" {
		grant = []string{mu}
	}
	for _, mu := range grant {
		st.held[recvName+"."+mu] = true
	}
}

func receiverOf(pkg *Package, fd *ast.FuncDecl) (string, types.Type) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return "", nil
	}
	name := fd.Recv.List[0].Names[0]
	obj := pkg.Info.Defs[name]
	if obj == nil {
		return "", nil
	}
	return name.Name, obj.Type()
}

// mutexFields lists the sync.Mutex / sync.RWMutex fields of t (after
// pointer stripping).
func mutexFields(t types.Type) []string {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	st, isStruct := t.Underlying().(*types.Struct)
	if !isStruct {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			out = append(out, st.Field(i).Name())
		}
	}
	return out
}

func isMutexType(t types.Type) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	return isNamed && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

func lockedPragma(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, has := strings.CutPrefix(text, "mpass:locked "); has {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// canonPath renders a selector chain as a canonical dotted path ("h.reg.mu")
// for the must-held set, or "" when the base is not a stable chain of
// identifiers and fields.
func canonPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := canonPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return canonPath(e.X)
	}
	return ""
}

// flow interprets one declared function (plus its literals).
type flow struct {
	sess     *Session
	pkg      *Package
	cfg      *flowConfig
	ctx      *flowCtx
	exprVals map[ast.Expr]absValue
	lits     []*ast.FuncLit
}

func (f *flow) visit(n ast.Node, st *flowState) {
	if f.cfg.visit != nil {
		f.cfg.visit(f.ctx, n, st)
	}
}

// block interprets stmts in sequence; the returned flag reports whether the
// path terminated (return / branch / panic) before the end.
func (f *flow) block(st *flowState, b *ast.BlockStmt) bool {
	if b == nil {
		return false
	}
	return f.stmts(st, b.List)
}

func (f *flow) stmts(st *flowState, list []ast.Stmt) bool {
	for _, s := range list {
		if f.stmt(st, s) {
			return true
		}
	}
	return false
}

// stmt applies one statement's transfer function to st in place, returning
// true when the statement terminates the path.
func (f *flow) stmt(st *flowState, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return f.block(st, s)
	case *ast.LabeledStmt:
		return f.stmt(st, s.Stmt)
	case *ast.ExprStmt:
		f.eval(st, s.X)
		if isPanicCall(f.pkg, s.X) {
			return true
		}
	case *ast.AssignStmt:
		f.assign(st, s)
		f.visit(s, st)
	case *ast.DeclStmt:
		f.declStmt(st, s)
	case *ast.IncDecStmt:
		f.eval(st, s.X)
	case *ast.SendStmt:
		f.eval(st, s.Chan)
		f.eval(st, s.Value)
		f.visit(s, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			f.eval(st, r)
		}
		f.visit(s, st)
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the current straight-line path; for
		// branch merging that is the same as termination.
		return true
	case *ast.DeferStmt:
		f.deferStmt(st, s)
	case *ast.GoStmt:
		f.eval(st, s.Call)
	case *ast.IfStmt:
		return f.ifStmt(st, s)
	case *ast.ForStmt:
		f.forStmt(st, s)
	case *ast.RangeStmt:
		f.rangeStmt(st, s)
	case *ast.SwitchStmt:
		f.switchStmt(st, s)
	case *ast.TypeSwitchStmt:
		f.typeSwitchStmt(st, s)
	case *ast.SelectStmt:
		f.selectStmt(st, s)
	}
	return false
}

func (f *flow) deferStmt(st *flowState, s *ast.DeferStmt) {
	// `defer mu.Unlock()` runs at function exit: the lock stays held for
	// the rest of the body, so the unlock effect is deliberately dropped.
	if name, _ := mutexCall(f.pkg, s.Call); name == "Unlock" || name == "RUnlock" {
		return
	}
	f.eval(st, s.Call)
}

func (f *flow) declStmt(st *flowState, s *ast.DeclStmt) {
	gd, isGen := s.Decl.(*ast.GenDecl)
	if !isGen {
		return
	}
	for _, spec := range gd.Specs {
		vs, isVal := spec.(*ast.ValueSpec)
		if !isVal {
			continue
		}
		for i, name := range vs.Names {
			var v absValue
			if i < len(vs.Values) {
				v = f.eval(st, vs.Values[i])
			}
			if obj := f.pkg.Info.Defs[name]; obj != nil {
				st.vals[obj] = v
			}
		}
	}
}

func (f *flow) assign(st *flowState, s *ast.AssignStmt) {
	// Evaluate non-ident LHS targets too: `r.jobs[id] = j` is a guarded
	// field access and the visit hooks must see it.
	for _, lhs := range s.Lhs {
		if _, isIdent := ast.Unparen(lhs).(*ast.Ident); !isIdent {
			f.eval(st, lhs)
		}
	}
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		f.tupleAssign(st, s)
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		v := f.eval(st, s.Rhs[i])
		if obj := lhsObject(f.pkg, lhs); obj != nil {
			if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
				st.vals[obj] = v
			} else {
				st.vals[obj] |= v
			}
		}
	}
}

// tupleAssign handles `a, b, err := call()` — per-result abstract values
// plus error-taint seeding that links the result objects to the error var.
func (f *flow) tupleAssign(st *flowState, s *ast.AssignStmt) {
	rhs := s.Rhs[0]
	f.eval(st, rhs)
	call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
	results := make([]absValue, len(s.Lhs))
	errIndex := -1
	if isCall {
		callee := StaticCallee(f.pkg.Info, call)
		ctxIn := false
		for _, a := range call.Args {
			if f.exprVals[a]&SrcCtx != 0 {
				ctxIn = true
			}
		}
		if tuple, isTuple := f.pkg.Info.TypeOf(call).(*types.Tuple); isTuple && tuple.Len() == len(s.Lhs) {
			for i := 0; i < tuple.Len(); i++ {
				t := tuple.At(i).Type()
				if isGenerationType(t) && f.cfg.loaderResult != nil && callee != nil && f.cfg.loaderResult(callee) {
					results[i] |= SrcSnapshot
				}
				if isContextType(t) && ctxIn {
					results[i] |= SrcCtx
				}
				if isErrorType(t) {
					errIndex = i
				}
			}
		}
		if errIndex >= 0 && f.cfg.errSource != nil && f.cfg.errSource(f.pkg, call) {
			errObj := lhsObject(f.pkg, s.Lhs[errIndex])
			for i := range results {
				if i == errIndex {
					continue
				}
				results[i] |= SrcErrTainted
				if errObj != nil {
					if depObj := lhsObject(f.pkg, s.Lhs[i]); depObj != nil {
						st.errDeps[errObj] = append(st.errDeps[errObj], depObj)
					}
				}
			}
		}
	} else {
		// x, ok := m[k] / v, ok := y.(T): propagate the source's bits to
		// the value result.
		base := f.exprVals[rhs]
		if len(results) > 0 {
			results[0] = base
		}
	}
	for i, lhs := range s.Lhs {
		if obj := lhsObject(f.pkg, lhs); obj != nil {
			st.vals[obj] = results[i]
		}
	}
}

func lhsObject(pkg *Package, lhs ast.Expr) types.Object {
	id, isIdent := ast.Unparen(lhs).(*ast.Ident)
	if !isIdent || id.Name == "_" {
		return nil
	}
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

func (f *flow) ifStmt(st *flowState, s *ast.IfStmt) bool {
	if s.Init != nil {
		f.stmt(st, s.Init)
	}
	f.eval(st, s.Cond)
	f.visit(s, st)
	thenSt := st.clone()
	elseSt := st.clone()
	refineErrCheck(f.pkg, s.Cond, thenSt, elseSt)
	thenTerm := f.block(thenSt, s.Body)
	elseTerm := false
	if s.Else != nil {
		elseTerm = f.stmt(elseSt, s.Else)
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		*st = *elseSt
	case elseTerm:
		*st = *thenSt
	default:
		thenSt.merge(elseSt)
		*st = *thenSt
	}
	return false
}

// refineErrCheck applies the nil-check refinement for `err != nil` /
// `err == nil` conditions on error-typed variables: on the err-is-nil side
// the values produced alongside that error are known good and lose their
// taint; on the err-is-non-nil side the taint stays, so using the value
// there (instead of failing closed) still reports.
func refineErrCheck(pkg *Package, cond ast.Expr, thenSt, elseSt *flowState) {
	bin, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return
	}
	ident, other := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if id, isIdent := other.(*ast.Ident); isIdent && id.Name != "nil" {
		ident, other = other, ident
	}
	nilIdent, isNil := other.(*ast.Ident)
	if !isNil || nilIdent.Name != "nil" {
		return
	}
	errIdent, isIdent := ident.(*ast.Ident)
	if !isIdent {
		return
	}
	obj := pkg.Info.Uses[errIdent]
	if obj == nil || !isErrorType(obj.Type()) {
		return
	}
	if bin.Op == token.EQL { // err == nil: then-side clean
		thenSt.clearErr(obj)
	} else { // err != nil: else/fallthrough-side clean
		elseSt.clearErr(obj)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func (f *flow) forStmt(st *flowState, s *ast.ForStmt) {
	if s.Init != nil {
		f.stmt(st, s.Init)
	}
	f.loop(st, func(iter *flowState) bool {
		if s.Cond != nil {
			f.eval(iter, s.Cond)
		}
		term := f.block(iter, s.Body)
		if !term && s.Post != nil {
			f.stmt(iter, s.Post)
		}
		return term
	})
}

func (f *flow) rangeStmt(st *flowState, s *ast.RangeStmt) {
	src := f.eval(st, s.X)
	for _, e := range []ast.Expr{s.Key, s.Value} {
		if e == nil {
			continue
		}
		if obj := lhsObject(f.pkg, e); obj != nil {
			st.vals[obj] = src
		}
	}
	f.loop(st, func(iter *flowState) bool {
		return f.block(iter, s.Body)
	})
}

// loop runs body to a small fixpoint: iterate until the state stabilizes
// (bounded), merging each iteration's exit back into the loop head, and
// fold the result into st — which also covers the zero-iteration path.
func (f *flow) loop(st *flowState, body func(*flowState) bool) {
	iter := st.clone()
	for round := 0; round < 4; round++ {
		out := iter.clone()
		term := body(out)
		next := iter.clone()
		if !term {
			next.merge(out)
		}
		if next.equal(iter) {
			break
		}
		iter = next
	}
	st.merge(iter)
}

func (f *flow) switchStmt(st *flowState, s *ast.SwitchStmt) {
	if s.Init != nil {
		f.stmt(st, s.Init)
	}
	if s.Tag != nil {
		f.eval(st, s.Tag)
	}
	// A tagless switch is a chained if: reaching a later clause (or falling
	// past the switch) means every earlier guard was false, so an
	// `err != nil` clause clears the error taint on the paths that skip it.
	f.caseMerge(st, s.Body, s.Tag == nil, nil)
}

func (f *flow) typeSwitchStmt(st *flowState, s *ast.TypeSwitchStmt) {
	if s.Init != nil {
		f.stmt(st, s.Init)
	}
	var bindVal absValue
	switch a := s.Assign.(type) {
	case *ast.ExprStmt:
		bindVal = f.eval(st, a.X)
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			bindVal = f.eval(st, a.Rhs[0])
		}
	}
	f.caseMerge(st, s.Body, false, func(clause *ast.CaseClause, caseSt *flowState) {
		// The per-clause binding of `v := x.(type)` is a distinct object
		// per clause, recorded in Implicits.
		if obj := f.pkg.Info.Implicits[clause]; obj != nil {
			caseSt.vals[obj] = bindVal
		}
	})
}

// caseMerge interprets each case clause of a switch body from the entry
// state and merges the non-terminated exits; without a default clause the
// fall-past path keeps the entry state. With refineFall set (tagless
// switch), nil-check clauses refine the entry state for the clauses and
// fall-through after them.
func (f *flow) caseMerge(st *flowState, body *ast.BlockStmt, refineFall bool, seed func(*ast.CaseClause, *flowState)) {
	var merged *flowState
	hasDefault := false
	for _, raw := range body.List {
		clause, isCase := raw.(*ast.CaseClause)
		if !isCase {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		caseSt := st.clone()
		for _, e := range clause.List {
			f.eval(caseSt, e)
			if refineFall {
				refineErrCheck(f.pkg, e, caseSt, st)
			}
		}
		if seed != nil {
			seed(clause, caseSt)
		}
		if f.stmts(caseSt, clause.Body) {
			continue
		}
		if merged == nil {
			merged = caseSt
		} else {
			merged.merge(caseSt)
		}
	}
	if merged == nil {
		return
	}
	if hasDefault {
		*st = *merged
	} else {
		st.merge(merged)
	}
}

func (f *flow) selectStmt(st *flowState, s *ast.SelectStmt) {
	var merged *flowState
	for _, raw := range s.Body.List {
		clause, isComm := raw.(*ast.CommClause)
		if !isComm {
			continue
		}
		caseSt := st.clone()
		if clause.Comm != nil {
			f.stmt(caseSt, clause.Comm)
		}
		if f.stmts(caseSt, clause.Body) {
			continue
		}
		if merged == nil {
			merged = caseSt
		} else {
			merged.merge(caseSt)
		}
	}
	if merged != nil {
		// A select always takes exactly one clause; with every armed
		// clause accounted for, the merge replaces the entry state.
		*st = *merged
	}
}

// eval computes e's abstract value, applies its effects to st, records the
// value for flowCtx.Value, and fires visit hooks for interesting nodes.
func (f *flow) eval(st *flowState, e ast.Expr) absValue {
	v := f.evalInner(st, e)
	f.exprVals[e] = v
	return v
}

func (f *flow) evalInner(st *flowState, e ast.Expr) absValue {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := f.pkg.Info.Uses[e]; obj != nil {
			return st.vals[obj]
		}
		return 0
	case *ast.SelectorExpr:
		return f.evalSelector(st, e)
	case *ast.CallExpr:
		return f.evalCall(st, e)
	case *ast.CompositeLit:
		var v absValue
		for _, elt := range e.Elts {
			v |= f.eval(st, elt)
		}
		f.visit(e, st)
		return v
	case *ast.KeyValueExpr:
		return f.eval(st, e.Value)
	case *ast.ParenExpr:
		return f.eval(st, e.X)
	case *ast.StarExpr:
		return f.eval(st, e.X)
	case *ast.UnaryExpr:
		return f.eval(st, e.X)
	case *ast.BinaryExpr:
		return f.eval(st, e.X) | f.eval(st, e.Y)
	case *ast.IndexExpr:
		return f.eval(st, e.X) | f.eval(st, e.Index)
	case *ast.IndexListExpr:
		return f.eval(st, e.X)
	case *ast.SliceExpr:
		return f.eval(st, e.X)
	case *ast.TypeAssertExpr:
		return f.eval(st, e.X)
	case *ast.FuncLit:
		f.lits = append(f.lits, e)
		return 0
	}
	return 0
}

func (f *flow) evalSelector(st *flowState, e *ast.SelectorExpr) absValue {
	sel := f.pkg.Info.Selections[e]
	if sel == nil {
		// Package-qualified identifier: pkg.Name.
		var v absValue
		if obj := f.pkg.Info.Uses[e.Sel]; obj != nil {
			v = st.vals[obj]
		}
		f.visit(e, st)
		return v
	}
	base := f.eval(st, e.X)
	f.visit(e, st)
	v := base
	// A version field of a generation value is version-derived: ms.version
	// on the fixture tree's *modelSet, whether ms came from a tracked load
	// or a parameter. (The real tree reads Set.Version().)
	if sel.Kind() == types.FieldVal && strings.EqualFold(e.Sel.Name, "version") &&
		(base&SrcSnapshot != 0 || isGenerationType(sel.Recv())) {
		v |= SrcVersion
	}
	return v
}

func (f *flow) evalCall(st *flowState, call *ast.CallExpr) absValue {
	// Conversions propagate their operand: string(raw), []byte(s).
	if tv, known := f.pkg.Info.Types[call.Fun]; known && tv.IsType() {
		var v absValue
		for _, a := range call.Args {
			v |= f.eval(st, a)
		}
		return v
	}
	var args absValue
	for _, a := range call.Args {
		args |= f.eval(st, a)
	}
	var recv absValue
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		if f.pkg.Info.Selections[sel] != nil {
			recv = f.eval(st, sel.X)
		}
	}
	// Hooks observe the call with pre-call state (arguments evaluated, the
	// call's own effects not yet applied): snapshotonce reads st.Loads()
	// here to ask "was a generation already pinned before this load?".
	f.visit(call, st)

	name, muPath := mutexCall(f.pkg, call)
	switch name {
	case "Lock", "RLock":
		if muPath != "" {
			st.held[muPath] = true
		}
	case "Unlock", "RUnlock":
		if muPath != "" {
			delete(st.held, muPath)
		}
	}

	var v absValue
	callee := StaticCallee(f.pkg.Info, call)
	if isSnapshotLoadCall(f.pkg.Info, call) ||
		(callee != nil && f.cfg.loaderResult != nil && f.cfg.loaderResult(callee)) {
		st.addLoad(call.Pos())
		if isGenerationType(f.pkg.Info.TypeOf(call)) {
			v |= SrcSnapshot
		}
	}
	if isBuiltinName(f.pkg, call.Fun, "append") || isBuiltinName(f.pkg, call.Fun, "copy") {
		v |= args
	}
	v |= f.hashValue(st, call, callee)
	if isVersionMethod(f.pkg, call) {
		v |= SrcVersion
	}
	if recv&SrcErrTainted != 0 {
		v |= SrcErrTainted
	}
	return v
}

// hashValue recognizes content-digest production: sha256.Sum256(data), and
// the streaming form h.Sum(buf[:0]) which also marks buf's variable as
// hash-derived.
func (f *flow) hashValue(st *flowState, call *ast.CallExpr, callee *types.Func) absValue {
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "crypto/sha256" &&
		strings.HasPrefix(callee.Name(), "Sum") {
		return SrcContentHash
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Sum" || f.pkg.Info.Selections[sel] == nil || len(call.Args) != 1 {
		return 0
	}
	// h.Sum(sum[:0]): the digest lands in sum's backing array.
	if slice, isSlice := ast.Unparen(call.Args[0]).(*ast.SliceExpr); isSlice {
		if id, isIdent := ast.Unparen(slice.X).(*ast.Ident); isIdent {
			if obj := f.pkg.Info.Uses[id]; obj != nil {
				st.vals[obj] |= SrcContentHash
			}
		}
	}
	return SrcContentHash
}

// isVersionMethod reports Version()-style calls on the serving layer's own
// types (engine drivers and sets, server model sets): their results key
// cache generations.
func isVersionMethod(pkg *Package, call *ast.CallExpr) bool {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Version" {
		return false
	}
	selection := pkg.Info.Selections[sel]
	if selection == nil {
		return false
	}
	recv := selection.Recv()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	n, isNamed := recv.(*types.Named)
	return isNamed && n.Obj().Pkg() != nil &&
		pathWithinAny(n.Obj().Pkg().Path(), []string{"internal/server", "internal/gateway", "internal/engine"})
}

func isBuiltinName(pkg *Package, fun ast.Expr, name string) bool {
	id, isIdent := ast.Unparen(fun).(*ast.Ident)
	if !isIdent || id.Name != name {
		return false
	}
	_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// mutexCall reports the method name and canonical mutex path for
// Lock/Unlock/RLock/RUnlock calls on sync.Mutex / sync.RWMutex values.
func mutexCall(pkg *Package, call *ast.CallExpr) (string, string) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	selection := pkg.Info.Selections[sel]
	if selection == nil || !isMutexType(selection.Recv()) {
		return "", ""
	}
	return sel.Sel.Name, canonPath(sel.X)
}

func isPanicCall(pkg *Package, e ast.Expr) bool {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return false
	}
	if isBuiltinName(pkg, call.Fun, "panic") {
		return true
	}
	if callee := StaticCallee(pkg.Info, call); callee != nil && callee.Pkg() != nil {
		p, n := callee.Pkg().Path(), callee.Name()
		if p == "os" && n == "Exit" {
			return true
		}
		if p == "log" && strings.HasPrefix(n, "Fatal") {
			return true
		}
	}
	return false
}
