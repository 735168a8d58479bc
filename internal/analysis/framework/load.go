package framework

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
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked compilation unit.  In-package test
// files are compiled together with the package proper (they see the same
// discipline), and an external _test package, when present, is loaded as a
// separate Package whose Path carries the "_test" suffix.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Sizes types.Sizes
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Incomplete   bool
	Error        *struct{ Err string }
	DepsErrors   []*struct{ Err string }
	ForTest      string
}

// Load resolves the patterns with `go list` in dir and type-checks every
// matched package (plus its test files) with the stdlib source importer.
// It needs no network and no GOPATH contents beyond the module itself:
// the only imports in this repository resolve to the standard library or
// to sibling packages in the module.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	// One source importer shared by every unit, so each dependency is
	// type-checked once per Load call.
	imp := importer.ForCompiler(fset, "source", nil)
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}

	var pkgs []*Package
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		units := []struct {
			path  string
			files []string
		}{
			{lp.ImportPath, append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)},
			{lp.ImportPath + "_test", lp.XTestGoFiles},
		}
		for _, u := range units {
			if len(u.files) == 0 {
				continue
			}
			var asts []*ast.File
			for _, name := range u.files {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
				if err != nil {
					return nil, err
				}
				asts = append(asts, f)
			}
			pkg, info, err := check(u.path, fset, asts, imp, sizes)
			if err != nil {
				return nil, fmt.Errorf("type-checking %s: %w", u.path, err)
			}
			pkgs = append(pkgs, &Package{
				Path:  u.path,
				Fset:  fset,
				Files: asts,
				Types: pkg,
				Info:  info,
				Sizes: sizes,
			})
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// check type-checks one unit.
func check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer, sizes types.Sizes) (*types.Package, *types.Info, error) {
	info := NewInfo()
	conf := types.Config{Importer: imp, Sizes: sizes}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// goList shells out to `go list -json`; the go toolchain is the one
// component the environment is guaranteed to provide.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// RunAnalyzers applies every analyzer to every package and returns the
// diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				TypesSizes: pkg.Sizes,
			}
			pass.Report = func(d Diagnostic) {
				d.Category = a.Name
				diags = append(diags, d)
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Category < diags[j].Category
	})
	return diags, nil
}
