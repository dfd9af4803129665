// Package poolsafe implements the pjoinlint analyzer for pooled-batch
// discipline. The exec layer recycles stream.Batch values through one
// shared type, stream.Lane (an edge's return path), whose Get and Put are
// marked //pjoin:pool get and //pjoin:pool put; every batch obtained
// from a get must, on every path out of the obtaining function, either
// be recycled (put) or have its ownership transferred — sent on a
// channel, returned, stored into a longer-lived structure, or passed to
// another function. After a put, the batch must not be touched again.
//
// Accessors are the functions carrying the markers in the package under
// analysis, plus Lane.Get/Put of an imported stream package: export data
// carries no comments, so the lane's callers find it by name, the way
// opcontract finds the stream types.
//
// The analysis is flow-sensitive within a function and purely
// structural: branches fork the tracking state and fall-throughs merge
// by union (a batch live on any surviving path stays an obligation).
// Documented approximations (DESIGN.md §14): passing a batch to any
// call or composite literal counts as an ownership transfer; error
// returns (a non-nil error result) are exempt, since pipeline
// teardown refills pools from scratch; obligations escaping through
// break/continue are not tracked.
package poolsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"pjoin/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolsafe",
	Doc: "check that pooled batches from //pjoin:pool get accessors are recycled or " +
		"ownership-transferred on every path, and never used after //pjoin:pool put",
	Run: run,
}

func run(pass *analysis.Pass) error {
	g := analysis.BuildCallGraph(pass)
	gets := make(map[*types.Func]bool)
	puts := make(map[*types.Func]bool)
	for fn, fd := range g.Decls {
		if analysis.HasFuncDirective(fd, "pool", "get") {
			gets[fn] = true
		}
		if analysis.HasFuncDirective(fd, "pool", "put") {
			puts[fn] = true
		}
	}
	if streamPkg := analysis.ImportWithSuffix(pass.Pkg, "stream"); streamPkg != nil {
		if tn, ok := streamPkg.Scope().Lookup("Lane").(*types.TypeName); ok {
			for name, set := range map[string]map[*types.Func]bool{"Get": gets, "Put": puts} {
				m, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, streamPkg, name)
				if fn, ok := m.(*types.Func); ok {
					set[fn] = true
				}
			}
		}
	}
	if len(gets) == 0 {
		return nil
	}
	var fns []*types.Func
	for fn := range g.Decls {
		if !gets[fn] && !puts[fn] { // the accessors themselves are exempt
			fns = append(fns, fn)
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name() < fns[j].Name() })
	for _, fn := range fns {
		w := &walker{pass: pass, gets: gets, puts: puts, sig: fn.Type().(*types.Signature)}
		w.checkFunc(g.Decls[fn])
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
	gets map[*types.Func]bool
	puts map[*types.Func]bool
	sig  *types.Signature // of the body being walked (func or closure)
}

// state is the per-path tracking state.
type state struct {
	live    map[types.Object]token.Pos // unrecycled batch → birth
	retired map[types.Object]token.Pos // recycled batch → put site
}

func newState() *state {
	return &state{live: map[types.Object]token.Pos{}, retired: map[types.Object]token.Pos{}}
}

func (s *state) clone() *state {
	c := newState()
	for k, v := range s.live {
		c.live[k] = v
	}
	for k, v := range s.retired {
		c.retired[k] = v
	}
	return c
}

// merge folds a fall-through sibling path in by union: an obligation
// alive on either path survives, a retirement on either path sticks.
func (s *state) merge(o *state) {
	for k, v := range o.live {
		if _, ok := s.live[k]; !ok {
			s.live[k] = v
		}
	}
	for k, v := range o.retired {
		if _, ok := s.retired[k]; !ok {
			s.retired[k] = v
		}
	}
}

func (w *walker) checkFunc(fd *ast.FuncDecl) {
	st := newState()
	terminated := w.walkStmts(fd.Body.List, st)
	if !terminated {
		// Fell off the end of the function body.
		w.reportLive(st, fd.Body.Rbrace)
	}
	// Closures get the same treatment, independently: obligations do
	// not flow across the closure boundary (a batch captured by a
	// goroutine body has escaped anyway).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			sig, ok := w.pass.Info.TypeOf(lit).(*types.Signature)
			if !ok {
				return true
			}
			wc := &walker{pass: w.pass, gets: w.gets, puts: w.puts, sig: sig}
			st := newState()
			if !wc.walkStmts(lit.Body.List, st) {
				wc.reportLive(st, lit.Body.Rbrace)
			}
		}
		return true
	})
}

func (w *walker) reportLive(st *state, at token.Pos) {
	type leak struct {
		obj   types.Object
		birth token.Pos
	}
	var leaks []leak
	for obj, birth := range st.live {
		leaks = append(leaks, leak{obj, birth})
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].birth < leaks[j].birth })
	for _, l := range leaks {
		w.pass.Reportf(at, "pooled batch %s (obtained at line %d) is not recycled on this path: put it back or transfer ownership",
			l.obj.Name(), w.pass.Fset.Position(l.birth).Line)
	}
}

// walkStmts walks a statement list, mutating st; it reports leaks at
// terminators and returns whether the list always terminates the path.
func (w *walker) walkStmts(stmts []ast.Stmt, st *state) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *walker) walkStmt(s ast.Stmt, st *state) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r, st, true)
		}
		if !w.errorExempt(s) {
			w.reportLive(st, s.Pos())
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto: obligations crossing these edges are
		// out of scope (documented); treat as path end, no report.
		return true
	case *ast.AssignStmt:
		w.walkAssign(s, st)
	case *ast.ExprStmt:
		w.scanExpr(s.X, st, false)
	case *ast.SendStmt:
		w.scanExpr(s.Chan, st, false)
		w.scanExpr(s.Value, st, true) // ownership rides the channel
	case *ast.DeferStmt, *ast.GoStmt:
		var call *ast.CallExpr
		if d, ok := s.(*ast.DeferStmt); ok {
			call = d.Call
		} else {
			call = s.(*ast.GoStmt).Call
		}
		w.scanExpr(call, st, false)
	case *ast.IncDecStmt:
		w.scanExpr(s.X, st, false)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, st, false)
					}
				}
			}
		}
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.scanExpr(s.Cond, st, false)
		thenSt := st.clone()
		thenTerm := w.walkStmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else, elseSt)
		}
		return w.mergeFork(st, []*state{thenSt, elseSt}, []bool{thenTerm, elseTerm})
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkBranching(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, st, false)
		}
		w.walkLoopBody(s.Body, st)
	case *ast.RangeStmt:
		w.scanExpr(s.X, st, false)
		w.walkLoopBody(s.Body, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	}
	return false
}

// walkLoopBody checks the body as its own scope: a batch born inside
// one iteration must be discharged before the next.
func (w *walker) walkLoopBody(body *ast.BlockStmt, outer *state) {
	st := outer.clone()
	before := make(map[types.Object]bool)
	for obj := range st.live {
		before[obj] = true
	}
	if !w.walkStmts(body.List, st) {
		for obj, birth := range st.live {
			if !before[obj] {
				w.pass.Reportf(birth, "pooled batch %s is not recycled before the next loop iteration", obj.Name())
			}
		}
	}
	// Conservative continuation: the loop may run zero times, so the
	// outer state is unchanged (releases of outer batches inside the
	// body do not count).
}

// walkBranching handles switch/type-switch/select uniformly: each case
// forks, fall-throughs merge by union.
func (w *walker) walkBranching(s ast.Stmt, st *state) bool {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, st, false)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	var states []*state
	var terms []bool
	for _, c := range clauses {
		cs := st.clone()
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			body = c.Body
		case *ast.CommClause:
			hasDefault = true // select always takes exactly one clause
			if c.Comm != nil {
				w.walkStmt(c.Comm, cs)
			}
			body = c.Body
		}
		states = append(states, cs)
		terms = append(terms, w.walkStmts(body, cs))
	}
	if !hasDefault {
		// An implicit fall-through when no case matches.
		states = append(states, st.clone())
		terms = append(terms, false)
	}
	return w.mergeFork(st, states, terms)
}

// mergeFork replaces st with the union of the non-terminated branch
// states; it returns true when every branch terminated.
func (w *walker) mergeFork(st *state, states []*state, terms []bool) bool {
	st.live = map[types.Object]token.Pos{}
	st.retired = map[types.Object]token.Pos{}
	all := true
	for i, bs := range states {
		if terms[i] {
			continue
		}
		all = false
		st.merge(bs)
	}
	return all
}

// walkAssign handles births (RHS contains a get call, LHS is a simple
// local), releases (RHS feeds a put / escapes), and retirement resets.
func (w *walker) walkAssign(a *ast.AssignStmt, st *state) {
	for _, rhs := range a.Rhs {
		w.scanExpr(rhs, st, false)
	}
	// Positional matching only when the counts line up; tuple
	// assignments from a single call cannot carry a batch birth.
	for i, lhs := range a.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			// Assigning into a field or element is an ownership
			// transfer for any tracked batch on the RHS — except into
			// the batch itself: b.Items = append(b.Items, it) keeps the
			// obligation on b.
			if len(a.Rhs) == len(a.Lhs) {
				w.releaseTracked(a.Rhs[i], st, w.rootObj(lhs))
			}
			continue
		}
		obj := w.objOf(id)
		if obj == nil {
			continue
		}
		delete(st.retired, obj) // reassignment revives the name
		if len(a.Rhs) == len(a.Lhs) && w.containsGet(a.Rhs[i]) {
			st.live[obj] = id.Pos()
		} else {
			// Overwritten without a recycle: tracking stops here
			// (documented approximation rather than a diagnostic).
			delete(st.live, obj)
		}
	}
}

func (w *walker) objOf(id *ast.Ident) types.Object {
	if obj := w.pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return w.pass.Info.Uses[id]
}

func (w *walker) containsGet(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := w.pass.FuncFor(call); callee != nil && w.gets[callee] {
				found = true
			}
		}
		return !found
	})
	return found
}

// scanExpr classifies uses of tracked variables inside an expression:
// put-call arguments retire them, other call arguments and composite
// literals transfer ownership, plain reads flag use-after-put. With
// transfer=true the whole expression transfers ownership (returns,
// channel sends).
func (w *walker) scanExpr(e ast.Expr, st *state, transfer bool) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := w.pass.Info.Uses[e]
		if obj == nil {
			return
		}
		if putPos, ok := st.retired[obj]; ok {
			w.pass.Reportf(e.Pos(), "use of pooled batch %s after it was recycled at line %d",
				e.Name, w.pass.Fset.Position(putPos).Line)
		}
		if transfer {
			delete(st.live, obj)
		}
	case *ast.CallExpr:
		callee := w.pass.FuncFor(e)
		w.scanExpr(e.Fun, st, false)
		switch {
		case callee != nil && w.puts[callee]:
			for _, arg := range e.Args {
				w.retireTracked(arg, st, e.Pos())
			}
		case w.isKeepAliveBuiltin(e):
			// len/cap/append do not move ownership: x = append(x, it)
			// keeps the obligation on x.
			for _, arg := range e.Args {
				w.scanExpr(arg, st, false)
			}
		default:
			for _, arg := range e.Args {
				w.scanExpr(arg, st, true) // conservatively escapes
			}
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			w.scanExpr(elt, st, true) // ownership moves into the value
		}
	case *ast.KeyValueExpr:
		w.scanExpr(e.Value, st, transfer)
	case *ast.ParenExpr:
		w.scanExpr(e.X, st, transfer)
	case *ast.UnaryExpr:
		w.scanExpr(e.X, st, transfer)
	case *ast.StarExpr:
		w.scanExpr(e.X, st, false)
	case *ast.BinaryExpr:
		w.scanExpr(e.X, st, false)
		w.scanExpr(e.Y, st, false)
	case *ast.IndexExpr:
		w.scanExpr(e.X, st, false)
		w.scanExpr(e.Index, st, false)
	case *ast.SliceExpr:
		w.scanExpr(e.X, st, transfer) // a reslice aliases the array
		w.scanExpr(e.Low, st, false)
		w.scanExpr(e.High, st, false)
		w.scanExpr(e.Max, st, false)
	case *ast.SelectorExpr:
		w.scanExpr(e.X, st, false)
	case *ast.TypeAssertExpr:
		w.scanExpr(e.X, st, transfer)
	case *ast.FuncLit:
		// Bodies are walked separately in checkFunc; captures of
		// outer batches escape.
		w.releaseCaptured(e, st)
	}
}

// retireTracked marks every tracked variable inside a put argument as
// recycled (descending through append chains and reslices).
func (w *walker) retireTracked(e ast.Expr, st *state, putPos token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.pass.Info.Uses[id]; obj != nil {
				if _, tracked := st.live[obj]; tracked {
					delete(st.live, obj)
					st.retired[obj] = putPos
				}
			}
		}
		return true
	})
}

// releaseTracked drops obligations for variables inside e (ownership
// moved somewhere the walker cannot follow), except for keep.
func (w *walker) releaseTracked(e ast.Expr, st *state, keep types.Object) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.pass.Info.Uses[id]; obj != nil && obj != keep {
				delete(st.live, obj)
			}
		}
		return true
	})
}

// rootObj returns the variable a field, element or dereference
// expression is rooted at (b for b.Items[0]), or nil.
func (w *walker) rootObj(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return w.pass.Info.Uses[x]
		default:
			return nil
		}
	}
}

func (w *walker) releaseCaptured(lit *ast.FuncLit, st *state) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.pass.Info.Uses[id]; obj != nil {
				delete(st.live, obj)
			}
		}
		return true
	})
}

func (w *walker) isKeepAliveBuiltin(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := w.pass.Info.Uses[id].(*types.Builtin)
	if !ok {
		return false
	}
	switch b.Name() {
	case "len", "cap", "append":
		return true
	}
	return false
}

// errorExempt reports whether the return is a failure path: the
// function's last result is error and the returned error expression is
// not the nil literal. Teardown refills pools from scratch, so leaking
// a batch on the way out of a failing pipeline is not a bug.
func (w *walker) errorExempt(ret *ast.ReturnStmt) bool {
	if !analysis.IsErrorReturning(w.sig) {
		return false
	}
	if len(ret.Results) == 0 {
		return true // named results: assume the error path set them
	}
	last := ret.Results[len(ret.Results)-1]
	return !analysis.IsNilIdent(w.pass.Info, last)
}
