package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked target package, ready for analyzers.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Markers *MarkerSet
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matching patterns in the module rooted
// at dir, with full syntax and types.Info, without any dependency on
// x/tools: dependencies are resolved through the toolchain's own
// export data, which `go list -export` materializes in the build cache
// (an offline, hermetic operation).
func Load(dir string, patterns ...string) (*token.FileSet, []*Package, error) {
	exports, err := ListExports(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	targets, err := listTargets(dir, patterns)
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, t := range targets {
		p, err := checkPackage(fset, imp, t)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	return fset, pkgs, nil
}

// ListExports maps every import path in the targets' dependency
// closure to its export-data file. The -export flag makes `go list`
// build whatever is stale, so the mapping is always complete for a
// compiling tree. Exported for the fixture loader in linttest.
func ListExports(dir string, patterns []string) (map[string]string, error) {
	if len(patterns) == 0 {
		return nil, nil
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Export,Standard",
	}, patterns...)
	out, err := runGo(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list decode: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// listTargets resolves the analysis targets themselves (no -deps).
func listTargets(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-e", "-json=ImportPath,Dir,GoFiles,Error",
	}, patterns...)
	out, err := runGo(dir, args...)
	if err != nil {
		return nil, err
	}
	var targets []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list decode: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		targets = append(targets, p)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	return targets, nil
}

func runGo(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

func checkPackage(fset *token.FileSet, imp types.Importer, t listedPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return CheckFiles(fset, imp, t.ImportPath, t.Dir, files)
}

// CheckFiles type-checks one package's files, parsed with
// parser.ParseComments, against imp and indexes its markers. It fails
// on the first type error. Load and the fixture loader in linttest
// both build their packages through it.
func CheckFiles(fset *token.FileSet, imp types.Importer, path, dir string, files []*ast.File) (*Package, error) {
	info := newInfo()
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	return &Package{
		PkgPath: path,
		Dir:     dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		Markers: CollectMarkers(fset, files),
	}, nil
}

// newInfo returns a types.Info with every map analyzers rely on
// populated.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
