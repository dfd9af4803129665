// Package opcontract implements the pjoinlint analyzer for the
// operator driver contract (internal/op, contract rules 1–5):
//
//   - EOS is emitted exactly once, from Finish: stream.EOSItem must
//     not be constructed in code reachable from Process / OnIdle /
//     ProcessBatch, and every Finish must reach an EOSItem call.
//   - All emission is routed through the driver's Emitter: no raw
//     sends on (and no closing of) channels carrying stream.Item or
//     []stream.Item from operator-reachable code.
//   - Operators must observe EOS per port: code reachable from
//     Process/ProcessBatch must inspect stream.KindEOS.
//   - Stream time is data time: conversions stream.Time(x) where x is
//     wall-clock derived (time.Now/Since/Until, directly or through
//     one intra-package call) are flagged; the executor's sanctioned
//     wall→stream clamp carries an //pjoin:allow.
//   - Arrival time is Item.Ts: code reachable from Process /
//     ProcessBatch must not read <item>.Tuple.Ts. Tuples are shared and
//     never restamped, so their Ts is whatever the tuple's creator set;
//     the driver's stamp is the item's Ts (equally, the now argument).
//   - A delivered tuple may die with the call: code reachable from
//     Process / ProcessBatch must not store a delivered item, its Tuple
//     or the tuple's Values into a field, map, slice or channel that
//     outlives the call. An item may be borrowed (stream.Item.Borrowed:
//     the tuple lives in the batch that delivered it and is recycled
//     when the call returns); what is retained goes through
//     ResultSlab.Keep, what is forwarded goes to the Emitter. Taint
//     starts at the parameters that carry delivered items (stream.Item,
//     *stream.Item, []stream.Item), follows local assignments, ranges,
//     .Tuple / .Values selections, append and composite literals, and
//     crosses intra-package calls through the callee's parameters; a
//     call result is clean (Keep and every constructor return storage
//     of their own), a single value indexed
//     out of Values is a plain value, and a tuple handed to a function
//     of another package is that function's business.
//
// Reachability is the intra-package static call graph; dynamic
// dispatch is invisible (DESIGN.md §14 documents the approximation).
package opcontract

import (
	"go/ast"
	"go/types"
	"sort"

	"pjoin/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "opcontract",
	Doc: "check op.Operator/op.BatchProcessor implementations against the driver " +
		"contract: EOS only from Finish, emission only via the Emitter, EOS observed " +
		"per port, and no wall-clock-derived stream.Time",
	Run: run,
}

func run(pass *analysis.Pass) error {
	streamPkg := analysis.ImportWithSuffix(pass.Pkg, "stream")
	if streamPkg == nil {
		return nil // nothing stream-typed to misuse
	}
	g := analysis.BuildCallGraph(pass)
	checkWallClock(pass, g, streamPkg)
	if pass.Pkg == streamPkg {
		return nil // the contract types' own package is exempt
	}

	opPkg := analysis.ImportWithSuffix(pass.Pkg, "op")
	if opPkg == nil {
		return nil
	}
	operator := ifaceOf(opPkg, "Operator")
	batcher := ifaceOf(opPkg, "BatchProcessor")
	if operator == nil {
		return nil
	}

	var impls []implType
	scope := pass.Pkg.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		T := tn.Type()
		if types.IsInterface(T) {
			continue
		}
		ptr := types.NewPointer(T)
		if !types.Implements(T, operator) && !types.Implements(ptr, operator) {
			continue
		}
		im := implType{name: name}
		im.process = methodDecl(pass, g, T, "Process")
		im.onIdle = methodDecl(pass, g, T, "OnIdle")
		im.finish = methodDecl(pass, g, T, "Finish")
		if batcher != nil && (types.Implements(T, batcher) || types.Implements(ptr, batcher)) {
			im.processBatch = methodDecl(pass, g, T, "ProcessBatch")
		}
		impls = append(impls, im)
	}
	if len(impls) == 0 {
		return nil
	}

	var processRoots, allRoots []*types.Func
	for _, im := range impls {
		for _, fn := range []*types.Func{im.process, im.processBatch, im.onIdle} {
			if fn != nil {
				processRoots = append(processRoots, fn)
				allRoots = append(allRoots, fn)
			}
		}
		if im.finish != nil {
			allRoots = append(allRoots, im.finish)
		}
	}
	reachProcess := g.Reachable(processRoots...)
	reachAll := g.Reachable(allRoots...)

	checkEOSAndSends(pass, g, streamPkg, reachProcess, reachAll)
	checkStaleTupleTs(pass, g, streamPkg, reachProcess)
	checkRetention(pass, g, streamPkg, reachProcess)
	for _, im := range impls {
		checkPerType(pass, g, streamPkg, im)
	}
	return nil
}

type implType struct {
	name         string
	process      *types.Func
	processBatch *types.Func
	onIdle       *types.Func
	finish       *types.Func
}

func ifaceOf(pkg *types.Package, name string) *types.Interface {
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// methodDecl resolves T's method by name to its in-package declaration
// (nil for promoted methods declared elsewhere — those bodies are
// outside this package's view).
func methodDecl(pass *analysis.Pass, g *analysis.CallGraph, T types.Type, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(T), true, pass.Pkg, name)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if _, declared := g.Decls[fn]; !declared {
		return nil
	}
	return fn
}

// checkEOSAndSends walks every operator-reachable function body for
// EOSItem construction outside Finish and for raw stream-item channel
// traffic.
func checkEOSAndSends(pass *analysis.Pass, g *analysis.CallGraph, streamPkg *types.Package, reachProcess, reachAll map[*types.Func]bool) {
	for fn := range reachAll {
		fd := g.Decls[fn]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if callee := pass.FuncFor(n); callee != nil &&
					callee.Pkg() == streamPkg && callee.Name() == "EOSItem" && reachProcess[fn] {
					pass.Reportf(n.Pos(), "constructs stream.EOSItem in Process-reachable code: the driver contract emits EOS exactly once, from Finish")
				}
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(n.Args) == 1 &&
						isStreamItemChan(pass.Info.TypeOf(n.Args[0]), streamPkg) {
						pass.Reportf(n.Pos(), "closes a stream-item channel from operator code: EOS is signaled with stream.KindEOS via the Emitter, not channel close")
					}
				}
			case *ast.SendStmt:
				if isStreamItemChan(pass.Info.TypeOf(n.Chan), streamPkg) {
					pass.Reportf(n.Pos(), "raw channel send of stream items from operator code: route emission through the driver's Emitter")
				}
			}
			return true
		})
	}
}

// checkStaleTupleTs flags <expr of type stream.Item>.Tuple.Ts in
// Process-reachable code. A tuple held through some other
// variable (a stored tuple, a header the operator stamped itself) is out
// of the check's reach by design: only the incoming item's tuple is
// known to carry a foreign timestamp.
func checkStaleTupleTs(pass *analysis.Pass, g *analysis.CallGraph, streamPkg *types.Package, reachProcess map[*types.Func]bool) {
	for fn := range reachProcess {
		ast.Inspect(g.Decls[fn].Body, func(n ast.Node) bool {
			ts, ok := n.(*ast.SelectorExpr)
			if !ok || ts.Sel.Name != "Ts" {
				return true
			}
			tup, ok := ast.Unparen(ts.X).(*ast.SelectorExpr)
			if !ok || tup.Sel.Name != "Tuple" || !isStreamNamed(pass.Info.TypeOf(tup.X), streamPkg, "Item") {
				return true
			}
			pass.Reportf(ts.Pos(), "reads the incoming item's Tuple.Ts: tuples are shared and never restamped, the arrival time is the item's Ts (or now)")
			return true
		})
	}
}

// checkRetention flags stores of a delivered item, its tuple or the
// tuple's values that outlive the Process / ProcessBatch call (see the
// package comment for what is followed and what is not).
func checkRetention(pass *analysis.Pass, g *analysis.CallGraph, streamPkg *types.Package, reachProcess map[*types.Func]bool) {
	fns := make([]*types.Func, 0, len(reachProcess))
	for fn := range reachProcess {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return g.Decls[fns[i]].Pos() < g.Decls[fns[j]].Pos() })

	// tainted holds the variables that may refer to a delivered tuple.
	// It only grows, so the passes below run to a fixed point.
	tainted := make(map[types.Object]bool)
	for _, fn := range fns {
		params := fn.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			// A *stream.Tuple parameter is a seed only when a caller
			// passes it a delivered tuple (below): the joins hand their
			// helpers the tuple Keep returned.
			if t := params.At(i).Type(); carriesItems(t, streamPkg) && !isTuplePointer(t, streamPkg) {
				tainted[params.At(i)] = true
			}
		}
	}
	var isTainted func(e ast.Expr) bool
	isTainted = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return tainted[pass.Info.Uses[e]]
		case *ast.StarExpr:
			return isTainted(e.X)
		case *ast.UnaryExpr:
			return e.Op.String() == "&" && isTainted(e.X)
		case *ast.SliceExpr:
			return isTainted(e.X)
		case *ast.IndexExpr:
			// An element of a delivered slice is a delivered item; a
			// single attribute value is a plain value.
			return isTainted(e.X) && carriesItems(pass.Info.TypeOf(e), streamPkg)
		case *ast.SelectorExpr:
			return (e.Sel.Name == "Tuple" || e.Sel.Name == "Values") && isTainted(e.X)
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if isTainted(el) {
					return true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					for _, arg := range e.Args {
						if isTainted(arg) {
							return true
						}
					}
				}
			}
		}
		return false
	}
	taint := func(lhs ast.Expr) bool {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil || tainted[obj] || obj.Parent() == pass.Pkg.Scope() {
			return false
		}
		tainted[obj] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			ast.Inspect(g.Decls[fn].Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i, rhs := range n.Rhs {
							if isTainted(rhs) && taint(n.Lhs[i]) {
								changed = true
							}
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) == len(n.Values) {
						for i, v := range n.Values {
							if isTainted(v) && taint(n.Names[i]) {
								changed = true
							}
						}
					}
				case *ast.RangeStmt:
					if n.Value != nil && isTainted(n.X) && carriesItems(pass.Info.TypeOf(n.Value), streamPkg) && taint(n.Value) {
						changed = true
					}
				case *ast.CallExpr:
					callee := pass.FuncFor(n)
					if callee == nil || !reachProcess[callee] {
						return true
					}
					params := callee.Type().(*types.Signature).Params()
					for i, arg := range n.Args {
						if i < params.Len() && !tainted[params.At(i)] && isTainted(arg) &&
							carriesItems(params.At(i).Type(), streamPkg) {
							tainted[params.At(i)] = true
							changed = true
						}
					}
				}
				return true
			})
		}
	}

	const msg = "stores a delivered tuple past the call: a borrowed item's tuple is recycled with its batch when Process returns; retain it through ResultSlab.Keep, or hand the item to the Emitter"
	for _, fn := range fns {
		sig := fn.Type().(*types.Signature)
		ast.Inspect(g.Decls[fn].Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if isTainted(rhs) && outlivesCall(pass, sig, tainted, n.Lhs[i]) {
						pass.Reportf(n.Lhs[i].Pos(), msg)
					}
				}
			case *ast.SendStmt:
				// A send on a stream-item channel is already a raw send.
				if isTainted(n.Value) && !isStreamItemChan(pass.Info.TypeOf(n.Chan), streamPkg) {
					pass.Reportf(n.Pos(), msg)
				}
			}
			return true
		})
	}
}

// carriesItems reports whether a value of type t holds delivered items
// or tuples by reference: stream.Item, *stream.Item, *stream.Tuple, or a
// slice or array of those. (A tuple's Values are followed by selector,
// not by type.)
func carriesItems(t types.Type, streamPkg *types.Package) bool {
	switch u := t.(type) {
	case *types.Pointer:
		return isStreamNamed(u.Elem(), streamPkg, "Item") || isTuplePointer(t, streamPkg)
	case *types.Slice:
		return carriesItems(u.Elem(), streamPkg)
	case *types.Array:
		return carriesItems(u.Elem(), streamPkg)
	}
	return isStreamNamed(t, streamPkg, "Item")
}

func isTuplePointer(t types.Type, streamPkg *types.Package) bool {
	p, ok := t.(*types.Pointer)
	return ok && isStreamNamed(p.Elem(), streamPkg, "Tuple")
}

// outlivesCall reports whether an assignment to lhs stores into
// something that is still there when the function returns: a
// package-level variable, or memory reached from a parameter, the
// receiver or a local pointer through a dereference, a map or a slice.
// Writing into the delivered items themselves, or into a local slice,
// map or struct, does not count.
func outlivesCall(pass *analysis.Pass, sig *types.Signature, tainted map[types.Object]bool, lhs ast.Expr) bool {
	indirect, viaPointer := false, false
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if _, ok := pass.Info.TypeOf(x.X).Underlying().(*types.Pointer); ok {
				indirect, viaPointer = true, true
			}
			e = ast.Unparen(x.X)
			continue
		case *ast.IndexExpr:
			switch pass.Info.TypeOf(x.X).Underlying().(type) {
			case *types.Map, *types.Slice:
				indirect = true
			}
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			indirect, viaPointer = true, true
			e = ast.Unparen(x.X)
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return indirect
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	switch {
	case obj == nil || tainted[obj]:
		return false
	case obj.Parent() == pass.Pkg.Scope():
		return true
	case obj == sig.Recv() || isParam(sig, obj):
		return indirect
	default:
		return viaPointer
	}
}

func isParam(sig *types.Signature, obj types.Object) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return true
		}
	}
	return false
}

// isStreamItemChan reports whether t is chan stream.Item or
// chan []stream.Item (any direction).
func isStreamItemChan(t types.Type, streamPkg *types.Package) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	elem := ch.Elem()
	if sl, ok := elem.Underlying().(*types.Slice); ok {
		elem = sl.Elem()
	}
	return isStreamNamed(elem, streamPkg, "Item")
}

// isStreamNamed reports whether t is the named type stream.<name>.
func isStreamNamed(t types.Type, streamPkg *types.Package, name string) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == streamPkg && named.Obj().Name() == name
}

// checkPerType enforces the per-implementation obligations: Process
// must observe KindEOS, Finish must reach an EOSItem emission.
func checkPerType(pass *analysis.Pass, g *analysis.CallGraph, streamPkg *types.Package, im implType) {
	if im.process != nil {
		roots := []*types.Func{im.process}
		if im.processBatch != nil {
			roots = append(roots, im.processBatch)
		}
		if !reachReferences(pass, g, g.Reachable(roots...), streamPkg, "KindEOS") {
			pass.Reportf(g.Decls[im.process].Name.Pos(),
				"%s.Process never inspects stream.KindEOS: operators must count EOS per port (driver contract)", im.name)
		}
	}
	if im.finish != nil {
		if !reachCalls(pass, g, g.Reachable(im.finish), streamPkg, "EOSItem") {
			pass.Reportf(g.Decls[im.finish].Name.Pos(),
				"%s.Finish never emits stream.EOSItem: Finish must emit EOS exactly once (driver contract)", im.name)
		}
	}
}

func reachReferences(pass *analysis.Pass, g *analysis.CallGraph, reach map[*types.Func]bool, pkg *types.Package, name string) bool {
	for fn := range reach {
		found := false
		ast.Inspect(g.Decls[fn].Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				if obj := pass.Info.Uses[id]; obj != nil && obj.Pkg() == pkg {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func reachCalls(pass *analysis.Pass, g *analysis.CallGraph, reach map[*types.Func]bool, pkg *types.Package, name string) bool {
	for fn := range reach {
		found := false
		ast.Inspect(g.Decls[fn].Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := pass.FuncFor(call); callee != nil && callee.Pkg() == pkg && callee.Name() == name {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// checkWallClock flags stream.Time(x) conversions whose operand is
// wall-clock derived: x contains a call to time.Now/Since/Until, or to
// an intra-package function that itself calls one directly (one level
// of taint — deeper laundering is out of scope and documented).
func checkWallClock(pass *analysis.Pass, g *analysis.CallGraph, streamPkg *types.Package) {
	wallDirect := make(map[*types.Func]bool)
	for fn, fd := range g.Decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := pass.FuncFor(call); callee != nil && isWallClockFunc(callee) {
					wallDirect[fn] = true
				}
			}
			return !wallDirect[fn]
		})
	}
	for _, fd := range g.Decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[call.Fun]
			if !ok || !tv.IsType() || !isStreamTime(tv.Type, streamPkg) || len(call.Args) != 1 {
				return true
			}
			if tainted(pass, wallDirect, call.Args[0]) {
				pass.Reportf(call.Pos(), "stamps stream.Time from the wall clock: stream time is data time (item timestamps), not time.Now")
			}
			return true
		})
	}
}

func isWallClockFunc(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return true
	}
	return false
}

func isStreamTime(t types.Type, streamPkg *types.Package) bool {
	return isStreamNamed(t, streamPkg, "Time")
}

func tainted(pass *analysis.Pass, wallDirect map[*types.Func]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if callee := pass.FuncFor(call); callee != nil && (isWallClockFunc(callee) || wallDirect[callee]) {
			found = true
		}
		return !found
	})
	return found
}
