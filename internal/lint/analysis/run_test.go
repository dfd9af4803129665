package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// demoSrc drives the suppression machinery: the demo analyzer below
// flags every var whose name starts with "flag".
const demoSrc = `package fix

var flagA int //pjoin:allow demo covered by design

var flagB int

//pjoin:allow demo allowed from the line above
var flagC int

//pjoin:allow demo stale: nothing is reported on the next line
var quiet int

//pjoin:lockrank leaf
var other int

//pjoin:pool recycle
var wrongArg int
`

// demo flags every package-level var named flag*.
var demo = &Analyzer{
	Name: "demo",
	Doc:  "flag vars named flag*",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				vs, ok := n.(*ast.ValueSpec)
				if !ok {
					return true
				}
				for _, name := range vs.Names {
					if strings.HasPrefix(name.Name, "flag") {
						pass.Reportf(name.Pos(), "flagged %s", name.Name)
					}
				}
				return true
			})
		}
		return nil
	},
}

func loadSrc(t *testing.T, src string) (*token.FileSet, *Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CheckFiles(fset, nil, "fix", "", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkg
}

func TestRunSuppressionAndMarkers(t *testing.T) {
	fset, pkg := loadSrc(t, demoSrc)
	diags, err := Run(fset, []*Package{pkg}, []*Analyzer{demo})
	if err != nil {
		t.Fatal(err)
	}

	byMsg := make(map[string]Diagnostic)
	for _, d := range diags {
		byMsg[d.Message] = d
	}

	// Same-line allow suppresses and records the reason.
	a, ok := byMsg["flagged flagA"]
	if !ok || !a.Suppressed || a.Reason != "covered by design" {
		t.Errorf("flagA: want suppressed with reason %q, got %+v", "covered by design", a)
	}
	// No allow: the diagnostic gates.
	if b, ok := byMsg["flagged flagB"]; !ok || b.Suppressed {
		t.Errorf("flagB: want unsuppressed diagnostic, got %+v", b)
	}
	// Line-above allow suppresses too.
	if c, ok := byMsg["flagged flagC"]; !ok || !c.Suppressed {
		t.Errorf("flagC: want suppressed diagnostic, got %+v", c)
	}

	var stale, badVerb, badArgs *Diagnostic
	for i := range diags {
		d := &diags[i]
		switch {
		case d.Analyzer == "allow":
			stale = d
		case d.Analyzer == "marker" && strings.Contains(d.Message, "lockrank"):
			badVerb = d
		case d.Analyzer == "marker" && strings.Contains(d.Message, "pool"):
			badArgs = d
		}
	}
	if stale == nil || !strings.Contains(stale.Message, "stale //pjoin:allow demo") {
		t.Errorf("want a stale-allow diagnostic, got %+v", stale)
	}
	if badVerb == nil || !strings.Contains(badVerb.Message, "unknown //pjoin: verb lockrank") {
		t.Errorf("want an unknown-verb marker diagnostic, got %+v", badVerb)
	}
	if badArgs == nil || !strings.Contains(badArgs.Message, "want get or put") {
		t.Errorf("want a bad pool-arg marker diagnostic, got %+v", badArgs)
	}

	// Gating counts only unsuppressed findings: flagB + the three
	// marker/allow pseudo-diagnostics.
	if got := len(Unsuppressed(diags)); got != 4 {
		for _, d := range Unsuppressed(diags) {
			t.Logf("unsuppressed: %s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
		t.Errorf("Unsuppressed: want 4 diagnostics, got %d", got)
	}

	// Output is sorted by position.
	for i := 1; i < len(diags); i++ {
		if diags[i-1].Pos.Line > diags[i].Pos.Line {
			t.Errorf("diagnostics out of order: line %d before line %d", diags[i-1].Pos.Line, diags[i].Pos.Line)
		}
	}
}

func TestAllowRequiresReason(t *testing.T) {
	fset, pkg := loadSrc(t, "package fix\n\n//pjoin:allow demo\nvar flagD int\n")
	diags, err := Run(fset, []*Package{pkg}, []*Analyzer{demo})
	if err != nil {
		t.Fatal(err)
	}
	var sawMarker, sawFlag bool
	for _, d := range diags {
		if d.Analyzer == "marker" && strings.Contains(d.Message, "wrong argument count") {
			sawMarker = true
		}
		if d.Message == "flagged flagD" && !d.Suppressed {
			sawFlag = true
		}
	}
	if !sawMarker {
		t.Error("reason-less allow: want a wrong-argument-count marker diagnostic")
	}
	if !sawFlag {
		t.Error("reason-less allow must not suppress the diagnostic it precedes")
	}
}
