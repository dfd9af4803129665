// Package analysis is the hermetic core of pjoinlint: a small,
// stdlib-only re-implementation of the golang.org/x/tools/go/analysis
// surface the suite needs (Analyzer, Pass, Diagnostic), plus the
// pjoin marker grammar, an export-data package loader whose type check
// (CheckFiles) the fixture driver in linttest shares, and the shared
// intra-package call-graph machinery.
//
// The repo deliberately has zero module dependencies (go.mod pins
// nothing, builds are hermetic and offline), so instead of importing
// x/tools this package mirrors its API shape on top of go/ast,
// go/types and the toolchain's own export data (`go list -export`).
// Analyzers written against it port to the real framework mechanically
// if the dependency policy ever changes.
//
// # Marker grammar
//
// Analyzers are steered by machine-checked source markers (DESIGN.md
// §14 documents each analyzer's semantics); locksafe and opcontract
// need none, and an unknown verb is itself a diagnostic:
//
//	//pjoin:hotpath
//	    on a function: the function and everything it calls
//	    (intra-package, static calls) must not allocate, read the wall
//	    clock, block, or take locks.
//	//pjoin:pool get | //pjoin:pool put
//	    on a function: it returns / consumes a pooled object; poolsafe
//	    tracks values between the two.
//	//pjoin:span begin <family> | //pjoin:span end <family>
//	    on a function: it opens / closes a provenance trace family;
//	    spanpair pairs them on all paths.
//	//pjoin:allow <analyzer> <reason>
//	    on (or immediately above) a diagnosed line: suppress that
//	    analyzer's findings there. The reason is mandatory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer minus facts and requires
// (markers play the role of facts; see the package comment).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //pjoin:allow suppressions.
	Name string
	// Doc is the one-paragraph description `pjoinlint -list` prints.
	Doc string
	// Run performs the check over one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Markers  *MarkerSet

	report func(Diagnostic)
}

// Diagnostic is one finding. Position is resolved eagerly so the
// driver can sort and render without holding the FileSet.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
	// Suppressed marks findings covered by a //pjoin:allow marker;
	// Reason carries the marker's justification.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// SetReporter installs the diagnostic sink for a pass. The driver in
// Run does this itself; it is exported for linttest, which constructs
// passes directly.
func SetReporter(p *Pass, fn func(Diagnostic)) { p.report = fn }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ImportWithSuffix returns the directly imported package whose path is
// exactly suffix or ends in "/"+suffix, or the package itself when its
// own path matches. Analyzers use it to locate contract-defining
// packages (op, stream, span) in both the real tree and self-contained
// test fixtures, where the fixture stubs live at the bare path.
func ImportWithSuffix(pkg *types.Package, suffix string) *types.Package {
	if pathHasSuffix(pkg.Path(), suffix) {
		return pkg
	}
	for _, im := range pkg.Imports() {
		if pathHasSuffix(im.Path(), suffix) {
			return im
		}
	}
	return nil
}

func pathHasSuffix(path, suffix string) bool {
	return path == suffix ||
		(len(path) > len(suffix)+1 && path[len(path)-len(suffix)-1] == '/' && path[len(path)-len(suffix):] == suffix)
}

// FuncFor resolves the *types.Func a call expression statically
// dispatches to, or nil for dynamic calls (interface methods, func
// values, field closures). Conversions and builtins also return nil.
func (p *Pass) FuncFor(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok && sel.Kind() == types.MethodVal {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// IsErrorReturning reports whether the function type's final result is
// the built-in error type.
func IsErrorReturning(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// IsNilIdent reports whether e is the predeclared nil.
func IsNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
