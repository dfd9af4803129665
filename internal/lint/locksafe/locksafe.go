// Package locksafe implements the pjoinlint analyzer for the one lock
// rule (DESIGN.md §14): nothing is acquired while a sync lock is held,
// either directly or through an intra-package callee whose transitive
// may-acquire summary takes a lock. The rule covers every lock
// variable, field or local, so it needs no marker. Copies of
// lock-bearing values are go vet's copylocks check, which `make vet`
// runs.
//
// Held-lock tracking is source-order within a function: Lock and RLock
// push, Unlock and RUnlock pop, a deferred Unlock holds to the end.
// Closure bodies are excluded from both tracking and summaries (a
// closure that takes a lock runs where it is called, not where it is
// defined).
package locksafe

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"pjoin/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "check that nothing is acquired while a sync lock is held, directly or " +
		"through an intra-package callee",
	Run: run,
}

func run(pass *analysis.Pass) error {
	g := analysis.BuildCallGraph(pass)
	acq := summarize(pass, g)

	var fns []*types.Func
	for fn := range g.Decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name() < fns[j].Name() })
	for _, fn := range fns {
		trackHeld(pass, g.Decls[fn], acq)
	}
	return nil
}

// lockOp classifies a call as a lock or unlock of a sync primitive and
// resolves the variable it targets: a field, a local or a package
// variable (nil when the receiver is any other expression).
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (lock *types.Var, acquire, release bool) {
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
			lock, _ = s.Obj().(*types.Var)
		}
	case *ast.Ident:
		lock, _ = pass.Info.Uses[recv].(*types.Var)
	}
	return lock, acquire, release
}

// summarize computes, to a fixpoint over the intra-package call graph,
// the set of lock variables each function may acquire.
func summarize(pass *analysis.Pass, g *analysis.CallGraph) map[*types.Func]map[*types.Var]bool {
	acq := make(map[*types.Func]map[*types.Var]bool)
	for fn, fd := range g.Decls {
		set := make(map[*types.Var]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if lock, acquire, _ := lockOp(pass, call); acquire && lock != nil {
					set[lock] = true
				}
			}
			return true
		})
		acq[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn := range g.Decls {
			for _, e := range g.Out[fn] {
				for v := range acq[e.Callee] {
					if !acq[fn][v] {
						acq[fn][v] = true
						changed = true
					}
				}
			}
		}
	}
	return acq
}

// trackHeld walks one function in source order, keeping the locks it
// holds and reporting every acquisition under one.
func trackHeld(pass *analysis.Pass, fd *ast.FuncDecl, acq map[*types.Func]map[*types.Var]bool) {
	qual := types.RelativeTo(pass.Pkg)
	label := func(v *types.Var) string {
		kind := " variable "
		if v.IsField() {
			kind = " field "
		}
		return types.TypeString(v.Type(), qual) + kind + v.Name()
	}
	var held []*types.Var
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to function end; a
			// deferred closure is out of scope like any closure.
			return false
		case *ast.CallExpr:
			lock, acquire, release := lockOp(pass, n)
			switch {
			case acquire:
				if len(held) > 0 {
					pass.Reportf(n.Pos(), "acquires a lock while holding %s: nothing may be acquired under a lock", label(held[len(held)-1]))
				}
				if lock != nil {
					held = append(held, lock)
				}
			case release:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == lock {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case len(held) > 0:
				// A call into the package while holding: consult the
				// callee's may-acquire summary.
				callee := pass.FuncFor(n)
				if callee == nil || len(acq[callee]) == 0 {
					break
				}
				var names []string
				for v := range acq[callee] {
					names = append(names, label(v))
				}
				sort.Strings(names)
				pass.Reportf(n.Pos(), "calls %s, which may acquire %s, while holding %s", callee.Name(), strings.Join(names, ", "), label(held[len(held)-1]))
			}
		}
		return true
	})
}
