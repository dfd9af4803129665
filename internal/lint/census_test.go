package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestCensus is the reachability census: every function and method of
// the module's non-test code must be reached from one of its main
// packages, or be listed in testdata/census.golden with the reason it
// stays. The call graph is the linker's own: each main is built with
// inlining off for the module's packages (so a helper the compiler
// would inline still shows as an edge) and -dumpdep, which prints one
// "from -> to" line per symbol the linker's dead-code pass keeps. A
// function is reported when no edge reaches it.
// A method no edge reaches is reported too: as unreached when its
// receiver type has no type descriptor either, and as dropped when the
// type is live (DESIGN.md §14). A dropped method may still be needed,
// to satisfy an interface or as a marker found by type assertion, so
// the linker cannot tell it from dead code; the golden says which.
func TestCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every main package of the module")
	}
	root, _ := goOut(t, ".", "list", "-m", "-f", "{{.Dir}}")
	root = strings.TrimSpace(root)
	pkgs := listPackages(t, root)

	reached := make(map[string]bool) // path.Func, path.Recv.Method, path.Type
	mains := 0
	for _, p := range pkgs {
		if p.Name != "main" {
			continue
		}
		mains++
		_, deps := goOut(t, root, "build", "-o", os.DevNull,
			"-gcflags=pjoin/...=-l", "-ldflags=-dumpdep", p.ImportPath)
		for _, line := range strings.Split(deps, "\n") {
			if _, callee, ok := strings.Cut(line, " -> "); ok {
				if sym := censusSymbol(callee, p.ImportPath); sym != "" {
					reached[sym] = true
				}
			}
		}
	}
	if len(reached) == 0 {
		t.Fatal("no -dumpdep edges parsed: the linker's output format changed")
	}

	got := make(map[string]string)     // symbol -> position
	dropped := make(map[string]string) // methods of live types no edge reaches
	fset := token.NewFileSet()
	for _, p := range pkgs {
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" ||
					(p.Name == "main" && fd.Name.Name == "main" && fd.Recv == nil) {
					continue
				}
				sym := p.ImportPath + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := p.ImportPath + "." + recvName(fd.Recv.List[0].Type)
					sym = recv + "." + fd.Name.Name
					if reached[recv] {
						if !reached[sym] {
							dropped[sym] = fset.Position(fd.Pos()).String()
						}
						continue
					}
				}
				if !reached[sym] {
					got[sym] = fset.Position(fd.Pos()).String()
				}
			}
		}
	}

	want := readGolden(t, filepath.Join("testdata", "census.golden"))
	var bad []string
	for sym, pos := range got {
		if !want[sym] {
			bad = append(bad, fmt.Sprintf("unreached from every main: %s (%s): give it a caller or delete it", sym, pos))
		}
	}
	for sym, pos := range dropped {
		if !want[sym] {
			bad = append(bad, fmt.Sprintf("method of a live type the linker drops: %s (%s): give it a caller, delete it, or list it with the reason it stays", sym, pos))
		}
	}
	for sym := range want {
		_, unreached := got[sym]
		_, drop := dropped[sym]
		if !unreached && !drop {
			bad = append(bad, fmt.Sprintf("listed in census.golden but reached or gone: %s: drop its line", sym))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	t.Logf("census: %d symbols reached from %d mains, %d unreached, %d methods of live types dropped",
		len(reached), mains, len(got), len(dropped))
}

type censusPkg struct {
	ImportPath, Name, Dir string
	GoFiles               []string
}

// listPackages returns the module's packages with the non-test files
// the default build configuration compiles (so a file behind a build
// tag, such as store's poison_on.go, is not counted).
func listPackages(t *testing.T, root string) []censusPkg {
	out, _ := goOut(t, root, "list", "-json=ImportPath,Name,Dir,GoFiles", "./...")
	var pkgs []censusPkg
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var p censusPkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// censusSymbol normalises one -dumpdep callee to the census's key:
// "path.Func", "path.Recv.Method" or, for a type descriptor, "path.Type".
// Instantiation brackets go first (a shape type holds spaces, dots and
// nested brackets), then the linker's " <UsedInIface>"-style flags, the
// "(*T)" receiver spelling and the funcval "·f" suffix. A main package's
// symbols are spelled "main." and are renamed to its import path.
// Symbols outside the module come back "".
func censusSymbol(s, mainPath string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s = b.String()
	if i := strings.Index(s, " <"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimPrefix(s, "type:")
	s = strings.TrimPrefix(s, "*")
	s = strings.TrimSuffix(s, "·f")
	s = strings.NewReplacer("(*", "", ")", "").Replace(s)
	if rest, ok := strings.CutPrefix(s, "main."); ok {
		s = mainPath + "." + rest
	}
	if !strings.HasPrefix(s, "pjoin/") && !strings.HasPrefix(s, "pjoin.") {
		return ""
	}
	return s
}

// recvName is a receiver's base type name: *T, T[K] and *T[K] are T.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// readGolden reads "symbol reason" lines; '#' starts a comment line.
// Every entry must carry its reason.
func readGolden(t *testing.T, path string) map[string]bool {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", path, n, sym)
		}
		want[sym] = true
	}
	return want
}

// goOut runs go in dir and returns its stdout and stderr (where go build
// relays the linker's -dumpdep lines).
func goOut(t *testing.T, dir string, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	return out.String(), errb.String()
}
