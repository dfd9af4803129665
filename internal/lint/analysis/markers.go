package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed //pjoin: marker comment.
type Directive struct {
	Verb string   // "hotpath", "allow", "pool", "span"
	Args []string // verb-specific arguments (see package doc)
	// Reason is the free-text tail of an allow directive.
	Reason string
	Pos    token.Pos
	File   string
	Line   int

	used bool // an allow that suppressed at least one diagnostic
}

// BadDirective is a //pjoin: comment that failed to parse. The driver
// reports these as errors: a typo in a suppression must not silently
// re-enable (or half-apply) a check.
type BadDirective struct {
	Pos token.Pos
	Msg string
}

// MarkerSet indexes every //pjoin: directive in one package.
type MarkerSet struct {
	All []*Directive
	Bad []BadDirective

	// allows indexes allow directives by file, then line.
	allows map[string]map[int][]*Directive
}

const prefix = "//pjoin:"

var verbs = map[string]struct{ minArgs, maxArgs int }{
	"hotpath": {0, 0},
	"pool":    {1, 1}, // get | put
	"span":    {2, 2}, // begin|end <family>
	"allow":   {2, -1},
}

// CollectMarkers parses every //pjoin: directive in files (which must
// have been parsed with parser.ParseComments).
func CollectMarkers(fset *token.FileSet, files []*ast.File) *MarkerSet {
	m := &MarkerSet{allows: make(map[string]map[int][]*Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m.add(fset, c)
			}
		}
	}
	return m
}

func (m *MarkerSet) add(fset *token.FileSet, c *ast.Comment) {
	d, bad, ok := parseDirective(fset, c)
	if !ok {
		return
	}
	if bad != nil {
		m.Bad = append(m.Bad, *bad)
		return
	}
	m.All = append(m.All, d)
	if d.Verb == "allow" {
		byLine := m.allows[d.File]
		if byLine == nil {
			byLine = make(map[int][]*Directive)
			m.allows[d.File] = byLine
		}
		byLine[d.Line] = append(byLine[d.Line], d)
	}
}

// parseDirective returns (directive, nil, true) for a well-formed
// marker, (nil, bad, true) for a malformed one, and ok=false for
// comments that are not //pjoin: markers at all.
func parseDirective(fset *token.FileSet, c *ast.Comment) (*Directive, *BadDirective, bool) {
	text, isMarker := strings.CutPrefix(c.Text, prefix)
	if !isMarker {
		return nil, nil, false
	}
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return nil, &BadDirective{c.Pos(), "empty //pjoin: directive"}, true
	}
	verb := fields[0]
	spec, known := verbs[verb]
	if !known {
		return nil, &BadDirective{c.Pos(), "unknown //pjoin: verb " + verb}, true
	}
	args := fields[1:]
	if len(args) < spec.minArgs || (spec.maxArgs >= 0 && len(args) > spec.maxArgs) {
		return nil, &BadDirective{c.Pos(), "//pjoin:" + verb + ": wrong argument count (see DESIGN.md §14)"}, true
	}
	pos := fset.Position(c.Pos())
	d := &Directive{Verb: verb, Args: args, Pos: c.Pos(), File: pos.Filename, Line: pos.Line}
	switch verb {
	case "pool":
		if a := args[0]; a != "get" && a != "put" {
			return nil, &BadDirective{c.Pos(), "//pjoin:pool: want get or put, got " + a}, true
		}
	case "span":
		if a := args[0]; a != "begin" && a != "end" {
			return nil, &BadDirective{c.Pos(), "//pjoin:span: want begin or end, got " + a}, true
		}
	case "allow":
		d.Args = args[:1]
		d.Reason = strings.Join(args[1:], " ")
		if d.Reason == "" {
			return nil, &BadDirective{c.Pos(), "//pjoin:allow: a justification is mandatory"}, true
		}
	}
	return d, nil, true
}

// FuncDirectives parses the markers in a function's doc comment.
func FuncDirectives(decl *ast.FuncDecl) []Directive {
	if decl.Doc == nil {
		return nil
	}
	var ds []Directive
	for _, c := range decl.Doc.List {
		text, isMarker := strings.CutPrefix(c.Text, prefix)
		if !isMarker {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		ds = append(ds, Directive{Verb: fields[0], Args: fields[1:], Pos: c.Pos()})
	}
	return ds
}

// HasFuncDirective reports whether decl carries the given marker verb,
// optionally filtered by first argument ("" matches any).
func HasFuncDirective(decl *ast.FuncDecl, verb, arg0 string) bool {
	for _, d := range FuncDirectives(decl) {
		if d.Verb == verb && (arg0 == "" || (len(d.Args) > 0 && d.Args[0] == arg0)) {
			return true
		}
	}
	return false
}

// Suppress looks for an //pjoin:allow covering the diagnostic: same
// line, or the line directly above (for markers on their own line).
// It marks the winning directive used, for stale-allow detection.
func (m *MarkerSet) Suppress(analyzer, file string, line int) (*Directive, bool) {
	byLine := m.allows[file]
	if byLine == nil {
		return nil, false
	}
	for _, l := range [2]int{line, line - 1} {
		for _, d := range byLine[l] {
			if d.Args[0] == analyzer {
				d.used = true
				return d, true
			}
		}
	}
	return nil, false
}

// StaleAllows returns allow directives that suppressed nothing. A
// suppression that no longer fires is dead weight and, worse, hides
// that the underlying code changed; the driver reports them.
func (m *MarkerSet) StaleAllows() []*Directive {
	var stale []*Directive
	for _, d := range m.All {
		if d.Verb == "allow" && !d.used {
			stale = append(stale, d)
		}
	}
	return stale
}
