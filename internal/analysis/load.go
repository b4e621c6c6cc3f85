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
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Class Class

	dirs *directives

	// module is every package of the main module, type-checked by the
	// same Load call. Whole-program analyzers (unusedexport) read it so
	// their findings do not depend on which patterns were given.
	module []*Package
}

// allowed reports whether an //simvet:allow directive covers file:line.
func (p *Package) allowed(file string, line int) bool {
	return p.dirs.allow[file][line]
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Match      []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matched by patterns, resolving imports
// from compiler export data so no network access or third-party loader
// is needed. dir is the directory `go list` runs in (it selects the Go
// module; "" means the current directory). Only the packages named by
// the patterns are returned. Every other package of the main module is
// type-checked too, for whole-program analyzers; dependencies outside
// the module are loaded as export data for type information.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	mod, err := goList(dir, "-m")
	if err != nil {
		return nil, err
	}
	wanted := map[string]bool{}
	for _, p := range patterns {
		wanted[p] = true
	}
	args := append([]string{
		"-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,Match,Standard,DepOnly,Error",
	}, patterns...)
	out, err := goList(dir, append(args, string(bytes.TrimSpace(mod))+"/...")...)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var local []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			pp := p
			local = append(local, &pp)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})

	var pkgs, module []*Package
	for _, t := range local {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", t.ImportPath)
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
		}
		dirs := parseDirectives(fset, files)
		pkg := &Package{
			Path:  t.ImportPath,
			Dir:   t.Dir,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
			Class: classify(t.ImportPath, dirs),
			dirs:  dirs,
		}
		module = append(module, pkg)
		for _, m := range t.Match {
			if wanted[m] {
				pkgs = append(pkgs, pkg)
				break
			}
		}
	}
	for _, pkg := range module {
		pkg.module = module
	}
	return pkgs, nil
}

// goList runs `go list args` in dir and returns its standard output.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	return out, nil
}
