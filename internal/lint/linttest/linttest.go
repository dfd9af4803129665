// Package linttest runs a pjoinlint analyzer over source fixtures and
// checks its diagnostics against `// want "regexp"` comments, in the
// style of golang.org/x/tools/go/analysis/analysistest (which the repo
// does not depend on; see internal/lint/analysis).
//
// Fixtures live under <dir>/src/<pkgpath>/. Imports between fixture
// packages resolve within that tree — fixtures stub the contract
// packages (op, stream, span) they need, so they are self-contained —
// and all other imports (sync, time, fmt, ...) resolve through the
// toolchain's export data, exactly as the production loader does.
//
// A want comment asserts that the analyzer reports, on that line, a
// diagnostic matching the regexp. Every want must be matched and every
// diagnostic must be wanted; either direction of mismatch fails the
// test with the exact position and message.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pjoin/internal/lint/analysis"
)

// Run analyzes each fixture package (a path relative to dir/src) and
// verifies the diagnostics against the fixtures' want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l, err := newLoader(filepath.Join(dir, "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkgPath := range pkgs {
		pkg, err := l.load(pkgPath)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkgPath, err)
		}
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer: a,
			Fset:     l.fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Markers:  pkg.Markers,
		}
		analysis.SetReporter(pass, func(d analysis.Diagnostic) { diags = append(diags, d) })
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkgPath, err)
		}
		checkWants(t, l.fset, pkg, diags)
	}
}

type loader struct {
	root string
	fset *token.FileSet
	pkgs map[string]*analysis.Package
	base types.Importer
}

func newLoader(root string) (*loader, error) {
	l := &loader{
		root: root,
		fset: token.NewFileSet(),
		pkgs: make(map[string]*analysis.Package),
	}
	ext, err := l.externalImports()
	if err != nil {
		return nil, err
	}
	exports, err := analysis.ListExports(root, ext)
	if err != nil {
		return nil, err
	}
	l.base = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return l, nil
}

// externalImports walks the whole fixture tree and collects the import
// paths that are not fixture packages, so one `go list` resolves their
// export data up front.
func (l *loader) externalImports() ([]string, error) {
	seen := make(map[string]bool)
	err := filepath.Walk(l.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !l.isFixture(p) {
				seen[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for p := range seen {
		out = append(out, p)
	}
	return out, nil
}

func (l *loader) isFixture(path string) bool {
	st, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path)))
	return err == nil && st.IsDir()
}

// Import implements types.Importer over the two-tier scheme.
func (l *loader) Import(path string) (*types.Package, error) {
	if l.isFixture(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.base.Import(path)
}

func (l *loader) load(pkgPath string) (*analysis.Package, error) {
	if pkg, ok := l.pkgs[pkgPath]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no .go files", pkgPath)
	}
	pkg, err := analysis.CheckFiles(l.fset, l, pkgPath, dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[pkgPath] = pkg
	return pkg, nil
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`^//\s*want\s+(.*)$`)

func checkWants(t *testing.T, fset *token.FileSet, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// splitQuoted parses the `"re1" "re2"` tail of a want comment.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			t.Fatalf("%s: malformed want comment near %q", pos, s)
		}
		end := 1
		for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
			end++
		}
		if end == len(s) {
			t.Fatalf("%s: unterminated want regexp", pos)
		}
		raw, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s: bad want string: %v", pos, err)
		}
		out = append(out, raw)
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}
