// Package locksafe implements the pjoinlint analyzer for the mutex
// discipline:
//
//  1. copylocks-lite — values whose type transitively contains a sync
//     lock (Mutex, RWMutex, WaitGroup, Cond, Once, Pool, Map) must not
//     be copied: not passed, received, returned, assigned, or ranged
//     over by value.
//  2. lockrank — mutex fields carry //pjoin:lockrank <n|leaf> markers
//     encoding the documented hierarchy (DESIGN.md §14). Within a
//     function (and through intra-package calls, via transitive
//     may-acquire summaries), ranks must be strictly increasing in
//     acquisition order, and nothing at all may be acquired while a
//     leaf lock — the edge flush mutex and its peers — is held.
//
// Held-lock tracking is source-order within a function: Lock pushes,
// Unlock pops, a deferred Unlock holds to the end. Closure bodies are
// excluded from both tracking and summaries (a gauge closure that takes
// a lock runs under the sampler, not at its definition site).
package locksafe

import (
	"go/ast"
	"go/types"
	"math"
	"sort"
	"strconv"

	"pjoin/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "check that lock-bearing values are never copied and that locks are " +
		"acquired in the documented //pjoin:lockrank hierarchy order",
	Run: run,
}

// LeafRank marks locks under which nothing may be acquired.
const LeafRank = math.MaxInt

var syncLockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Cond": true, "Once": true, "Pool": true, "Map": true,
}

func run(pass *analysis.Pass) error {
	checkCopies(pass)

	ranks := collectRanks(pass)
	g := analysis.BuildCallGraph(pass)
	acq := summarize(pass, g, ranks)

	var fns []*types.Func
	for fn := range g.Decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name() < fns[j].Name() })
	for _, fn := range fns {
		trackHeld(pass, g.Decls[fn], ranks, acq)
	}
	return nil
}

// --- copylocks-lite ---

func containsLock(t types.Type) *types.Named {
	return containsLock1(t, make(map[types.Type]bool))
}

func containsLock1(t types.Type, seen map[types.Type]bool) *types.Named {
	if seen[t] {
		return nil
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" && syncLockTypes[obj.Name()] {
			return named
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hit := containsLock1(u.Field(i).Type(), seen); hit != nil {
				return hit
			}
		}
	case *types.Array:
		return containsLock1(u.Elem(), seen)
	}
	return nil
}

func checkCopies(pass *analysis.Pass) {
	qual := types.RelativeTo(pass.Pkg)
	lockName := func(t types.Type) (string, bool) {
		if t == nil {
			return "", false
		}
		if hit := containsLock(t); hit != nil {
			return types.TypeString(hit, qual), true
		}
		return "", false
	}
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			t := pass.Info.TypeOf(f.Type)
			if t == nil {
				continue
			}
			if name, bad := lockName(t); bad {
				pass.Reportf(f.Type.Pos(), "%s lock-bearing %s by value: it contains %s; use a pointer",
					what, types.TypeString(t, qual), name)
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkFieldList(fd.Recv, "receives")
			checkFieldList(fd.Type.Params, "passes")
			checkFieldList(fd.Type.Results, "returns")
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, rhs := range n.Rhs {
						if !copiesValue(rhs) {
							continue
						}
						if name, bad := lockName(pass.Info.TypeOf(rhs)); bad {
							pass.Reportf(rhs.Pos(), "assignment copies a lock-bearing value: it contains %s", name)
						}
					}
				case *ast.RangeStmt:
					if n.Value == nil {
						return true
					}
					if name, bad := lockName(pass.Info.TypeOf(n.Value)); bad {
						pass.Reportf(n.Value.Pos(), "range copies a lock-bearing value: it contains %s", name)
					}
				case *ast.CallExpr:
					if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() {
						return true // conversions restate, not copy-call
					}
					for _, arg := range n.Args {
						if !copiesValue(arg) {
							continue
						}
						if name, bad := lockName(pass.Info.TypeOf(arg)); bad {
							pass.Reportf(arg.Pos(), "call passes a lock-bearing value: it contains %s", name)
						}
					}
				}
				return true
			})
		}
	}
}

// copiesValue reports expression shapes that copy an existing value
// (as opposed to constructing a fresh one or taking an address).
func copiesValue(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.TypeAssertExpr:
		return copiesValue(e.X)
	}
	return false
}

// --- lockrank ---

// collectRanks parses //pjoin:lockrank markers off struct fields.
func collectRanks(pass *analysis.Pass) map[*types.Var]int {
	ranks := make(map[*types.Var]int)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, d := range analysis.FieldDirectives(field) {
					if d.Verb != "lockrank" || len(d.Args) != 1 {
						continue
					}
					rank := LeafRank
					if d.Args[0] != "leaf" {
						n, err := strconv.Atoi(d.Args[0])
						if err != nil {
							pass.Reportf(d.Pos, "//pjoin:lockrank: want an integer or leaf, got %q", d.Args[0])
							continue
						}
						rank = n
					}
					if t := pass.Info.TypeOf(field.Type); t == nil || containsLock(t) == nil {
						pass.Reportf(d.Pos, "//pjoin:lockrank on a field that is not a sync lock")
						continue
					}
					for _, name := range field.Names {
						if obj, ok := pass.Info.Defs[name].(*types.Var); ok {
							ranks[obj] = rank
						}
					}
				}
			}
			return true
		})
	}
	return ranks
}

// lockOp classifies a call as a lock or unlock of a sync primitive and
// resolves the field it targets (nil for non-field locks).
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (field *types.Var, acquire, release bool) {
	callee := pass.FuncFor(call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return nil, false, false
	}
	switch callee.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		release = true
	default:
		return nil, false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, acquire, release
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if s, ok := pass.Info.Selections[recv]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				field = v
			}
		}
	case *ast.Ident:
		if v, ok := pass.Info.Uses[recv].(*types.Var); ok {
			field = v
		}
	}
	return field, acquire, release
}

// summarize computes, to a fixpoint over the intra-package call graph,
// the set of ranked locks each function may acquire.
func summarize(pass *analysis.Pass, g *analysis.CallGraph, ranks map[*types.Var]int) map[*types.Func]map[*types.Var]bool {
	acq := make(map[*types.Func]map[*types.Var]bool)
	for fn, fd := range g.Decls {
		set := make(map[*types.Var]bool)
		inspectSkippingClosures(fd.Body, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if field, acquire, _ := lockOp(pass, call); acquire && field != nil {
					if _, ranked := ranks[field]; ranked {
						set[field] = true
					}
				}
			}
		})
		acq[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn := range g.Decls {
			for _, e := range g.Out[fn] {
				for f := range acq[e.Callee] {
					if !acq[fn][f] {
						acq[fn][f] = true
						changed = true
					}
				}
			}
		}
	}
	return acq
}

// inspectSkippingClosures is ast.Inspect minus FuncLit bodies.
func inspectSkippingClosures(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

type heldLock struct {
	field *types.Var
	rank  int
}

// trackHeld walks one function in source order, maintaining the set of
// held ranked locks and reporting hierarchy violations.
func trackHeld(pass *analysis.Pass, fd *ast.FuncDecl, ranks map[*types.Var]int, acq map[*types.Func]map[*types.Var]bool) {
	qual := types.RelativeTo(pass.Pkg)
	var held []heldLock
	maxHeld := func() (heldLock, bool) {
		var top heldLock
		for _, h := range held {
			if h.rank >= top.rank {
				top = h
			}
		}
		return top, len(held) > 0
	}
	lockLabel := func(f *types.Var) string {
		return types.TypeString(f.Type(), qual) + " field " + f.Name()
	}
	rankLabel := func(r int) string {
		if r == LeafRank {
			return "leaf"
		}
		return strconv.Itoa(r)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to function end; a
			// deferred closure is out of scope like any closure.
			return false
		case *ast.CallExpr:
			field, acquire, release := lockOp(pass, n)
			if acquire || release {
				rank, ranked := 0, false
				if field != nil {
					rank, ranked = ranks[field]
				}
				if acquire {
					if top, holding := maxHeld(); holding {
						switch {
						case top.rank == LeafRank:
							pass.Reportf(n.Pos(), "acquires a lock while holding leaf-ranked %s: nothing may be acquired under a leaf lock", lockLabel(top.field))
						case ranked && rank <= top.rank:
							pass.Reportf(n.Pos(), "lock order violation: acquires %s (rank %s) while holding %s (rank %s); ranks must strictly increase", lockLabel(field), rankLabel(rank), lockLabel(top.field), rankLabel(top.rank))
						}
					}
					if ranked {
						held = append(held, heldLock{field, rank})
					}
				}
				if release && ranked {
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].field == field {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
				return true
			}
			// A call into the package while holding: consult the
			// callee's may-acquire summary.
			if top, holding := maxHeld(); holding {
				if callee := pass.FuncFor(n); callee != nil {
					var fields []*types.Var
					for f := range acq[callee] {
						fields = append(fields, f)
					}
					sort.Slice(fields, func(i, j int) bool { return fields[i].Name() < fields[j].Name() })
					for _, f := range fields {
						r := ranks[f]
						switch {
						case top.rank == LeafRank:
							pass.Reportf(n.Pos(), "calls %s, which may acquire %s, while holding leaf-ranked %s", callee.Name(), lockLabel(f), lockLabel(top.field))
						case r <= top.rank:
							pass.Reportf(n.Pos(), "calls %s, which may acquire %s (rank %s), while holding %s (rank %s); ranks must strictly increase", callee.Name(), lockLabel(f), rankLabel(r), lockLabel(top.field), rankLabel(top.rank))
						}
					}
				}
			}
		}
		return true
	})
}
