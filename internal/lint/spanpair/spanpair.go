// Package spanpair implements the pjoinlint analyzer for span
// lifecycle pairing — the static mirror of the traced-oracle's "every
// lifecycle closes" reconciliation (DESIGN.md §7).
//
// Two rules:
//
//  1. Intra-function: a call to a //pjoin:span begin <family> function
//     opens an obligation that every clean exit path must discharge
//     with a //pjoin:span end <family> call. Error returns (non-nil
//     error result) are exempt — the run is tearing down and the
//     oracle's EOS-close accounting takes over. Begin/end-marked
//     functions themselves are exempt (they are the primitive).
//  2. Package-level: a package that emits the opening span kind of a
//     lifecycle (span.KindPunctArrive, or a begin-marked declaration
//     for a family) must also contain its terminal — KindPunctEmit or
//     KindPunctEOSClose for punctuations, an end-marked function or
//     KindPassEnd for passes. This catches lifecycles whose halves
//     span event handlers, where path analysis cannot follow.
//
// Both rules follow the span package's kind table. Its point family
// (purge_run, relocate, spill_error, op_start, op_finish, punct_discard)
// opens nothing, so a package that emits only point kinds — exec's
// operator start/finish — owes no terminal; what a point kind does owe is Trace 0, and a call that
// passes one next to any other trace argument is reported.
package spanpair

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"pjoin/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "spanpair",
	Doc: "check that every span-begin call site is matched by a terminal " +
		"(end/close) on all paths, and that packages opening a span lifecycle " +
		"also emit its terminal kind",
	Run: run,
}

// terminalKinds maps a lifecycle family to the span kinds that close it.
var terminalKinds = map[string][]string{
	"pass":  {"KindPassEnd"},
	"punct": {"KindPunctEmit", "KindPunctEOSClose"},
}

// isPoint reports whether a span-package constant belongs to the kind
// table's point family, read off the table itself the way
// span.Kind.IsPoint does: the kinds from KindPurgeRun on.
func isPoint(spanPkg *types.Package, c *types.Const) bool {
	first, ok := spanPkg.Scope().Lookup("KindPurgeRun").(*types.Const)
	return ok && types.Identical(c.Type(), first.Type()) && constant.Compare(c.Val(), token.GEQ, first.Val())
}

func run(pass *analysis.Pass) error {
	g := analysis.BuildCallGraph(pass)

	begins := make(map[*types.Func]string) // begin-marked fn → family
	ends := make(map[*types.Func]string)
	marked := make(map[*types.Func]bool)
	for fn, fd := range g.Decls {
		for _, d := range analysis.FuncDirectives(fd) {
			if d.Verb != "span" || len(d.Args) != 2 {
				continue
			}
			marked[fn] = true
			if d.Args[0] == "begin" {
				begins[fn] = d.Args[1]
			} else {
				ends[fn] = d.Args[1]
			}
		}
	}

	var fns []*types.Func
	for fn := range g.Decls {
		if !marked[fn] {
			fns = append(fns, fn)
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name() < fns[j].Name() })
	for _, fn := range fns {
		sig := fn.Type().(*types.Signature)
		w := &walker{pass: pass, begins: begins, ends: ends, sig: sig}
		w.checkBody(g.Decls[fn].Body)
		ast.Inspect(g.Decls[fn].Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				if lsig, ok := pass.Info.TypeOf(lit).(*types.Signature); ok {
					wc := &walker{pass: pass, begins: begins, ends: ends, sig: lsig}
					wc.checkBody(lit.Body)
				}
			}
			return true
		})
	}

	checkPackageLevel(pass, g, begins, ends)
	return nil
}

type walker struct {
	pass   *analysis.Pass
	begins map[*types.Func]string
	ends   map[*types.Func]string
	sig    *types.Signature
}

type open map[string]token.Pos // family → begin site

func (o open) clone() open {
	c := make(open, len(o))
	for k, v := range o {
		c[k] = v
	}
	return c
}

func (w *walker) checkBody(body *ast.BlockStmt) {
	st := make(open)
	if !w.walkStmts(body.List, st) {
		w.reportOpen(st, body.Rbrace)
	}
}

func (w *walker) reportOpen(st open, at token.Pos) {
	fams := make([]string, 0, len(st))
	for f := range st {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		w.pass.Reportf(at, "span family %q opened at line %d is not closed on this path",
			f, w.pass.Fset.Position(st[f]).Line)
	}
}

func (w *walker) walkStmts(stmts []ast.Stmt, st open) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *walker) walkStmt(s ast.Stmt, st open) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		w.scanEvents(s, st)
		if !w.errorExempt(s) {
			w.reportOpen(st, s.Pos())
		}
		return true
	case *ast.BranchStmt:
		return true // break/continue edges: out of scope, documented
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.scanEvents(s.Cond, st)
		thenSt := st.clone()
		thenTerm := w.walkStmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else, elseSt)
		}
		return mergeFork(st, []open{thenSt, elseSt}, []bool{thenTerm, elseTerm})
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkBranching(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanEvents(s.Cond, st)
		}
		w.walkLoopBody(s.Body, st)
	case *ast.RangeStmt:
		w.scanEvents(s.X, st)
		w.walkLoopBody(s.Body, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	default:
		w.scanEvents(s, st)
	}
	return false
}

func (w *walker) walkLoopBody(body *ast.BlockStmt, outer open) {
	st := outer.clone()
	before := make(map[string]bool)
	for f := range st {
		before[f] = true
	}
	if !w.walkStmts(body.List, st) {
		for f, pos := range st {
			if !before[f] {
				w.pass.Reportf(pos, "span family %q is not closed before the next loop iteration", f)
			}
		}
	}
}

func (w *walker) walkBranching(s ast.Stmt, st open) bool {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanEvents(s.Tag, st)
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
	var states []open
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
			hasDefault = true
			if c.Comm != nil {
				w.walkStmt(c.Comm, cs)
			}
			body = c.Body
		}
		states = append(states, cs)
		terms = append(terms, w.walkStmts(body, cs))
	}
	if !hasDefault {
		states = append(states, st.clone())
		terms = append(terms, false)
	}
	return mergeFork(st, states, terms)
}

func mergeFork(st open, states []open, terms []bool) bool {
	for f := range st {
		delete(st, f)
	}
	all := true
	for i, bs := range states {
		if terms[i] {
			continue
		}
		all = false
		for f, pos := range bs {
			if _, ok := st[f]; !ok {
				st[f] = pos
			}
		}
	}
	return all
}

// scanEvents applies begin/end calls found anywhere in the node.
// Defers count: a deferred end runs on every exit.
func (w *walker) scanEvents(n ast.Node, st open) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // closure bodies are walked separately
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := w.pass.FuncFor(call)
		if callee == nil {
			return true
		}
		if fam, ok := w.begins[callee]; ok {
			st[fam] = call.Pos()
		}
		if fam, ok := w.ends[callee]; ok {
			delete(st, fam)
		}
		return true
	})
}

func (w *walker) errorExempt(ret *ast.ReturnStmt) bool {
	if !analysis.IsErrorReturning(w.sig) {
		return false
	}
	if len(ret.Results) == 0 {
		return true
	}
	last := ret.Results[len(ret.Results)-1]
	return !analysis.IsNilIdent(w.pass.Info, last)
}

// checkPackageLevel enforces that lifecycles opened in this package
// can also terminate in it.
func checkPackageLevel(pass *analysis.Pass, g *analysis.CallGraph, begins, ends map[*types.Func]string) {
	spanPkg := analysis.ImportWithSuffix(pass.Pkg, "span")

	// A family with a begin-marked declaration needs an end-marked one
	// (or a direct terminal-kind emission).
	endFams := make(map[string]bool)
	for _, fam := range ends {
		endFams[fam] = true
	}
	type beginDecl struct {
		fn  *types.Func
		fam string
	}
	var decls []beginDecl
	for fn, fam := range begins {
		decls = append(decls, beginDecl{fn, fam})
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].fn.Name() < decls[j].fn.Name() })
	for _, d := range decls {
		if endFams[d.fam] {
			continue
		}
		if spanPkg != nil && referencesAnyKind(pass, spanPkg, terminalKinds[d.fam]) != 0 {
			continue
		}
		pass.Reportf(g.Decls[d.fn].Name.Pos(),
			"span family %q has a begin-marked function but no end-marked counterpart in this package", d.fam)
	}

	// Punctuation lifecycles: arrivals need a terminal.
	if spanPkg == nil || spanPkg == pass.Pkg {
		return
	}
	checkPointTraces(pass, spanPkg)
	arrivePos := referencesAnyKind(pass, spanPkg, []string{"KindPunctArrive"})
	if arrivePos == 0 {
		return
	}
	if referencesAnyKind(pass, spanPkg, terminalKinds["punct"]) == 0 {
		pass.Reportf(arrivePos,
			"package emits span.KindPunctArrive but never a punctuation terminal (KindPunctEmit / KindPunctEOSClose): lifecycles opened here can never close")
	}
}

// checkPointTraces reports every call whose first argument is a point
// kind and whose second — the trace, in Instr.Span's order — is anything
// but the constant 0: a point record filed under a trace would read as a
// lifecycle that never opened.
func checkPointTraces(pass *analysis.Pass, spanPkg *types.Package) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			var id *ast.Ident
			switch k := call.Args[0].(type) {
			case *ast.Ident:
				id = k
			case *ast.SelectorExpr:
				id = k.Sel
			default:
				return true
			}
			obj, ok := pass.Info.Uses[id].(*types.Const)
			if !ok || obj.Pkg() != spanPkg || !isPoint(spanPkg, obj) {
				return true
			}
			if tv := pass.Info.Types[call.Args[1]]; tv.Value == nil || tv.Value.String() != "0" {
				pass.Reportf(call.Args[1].Pos(),
					"point kind span.%s emitted under a trace: point kinds have no lifecycle and carry Trace 0", id.Name)
			}
			return true
		})
	}
}

// referencesAnyKind returns the position of the first use of any named
// constant from spanPkg, or 0.
func referencesAnyKind(pass *analysis.Pass, spanPkg *types.Package, names []string) token.Pos {
	if len(names) == 0 {
		return 0
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var found token.Pos
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found != 0 {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok || !want[id.Name] {
				return true
			}
			if obj, ok := pass.Info.Uses[id].(*types.Const); ok && obj.Pkg() == spanPkg {
				found = id.Pos()
			}
			return true
		})
	}
	return found
}
