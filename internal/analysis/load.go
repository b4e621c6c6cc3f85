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
	"slices"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Class Class

	dirs *directives

	// readers is every package whose non-test code counts as a use: the
	// main module's packages and those of the modules in its immediate
	// subdirectories (a benchmark module importing the library), all
	// type-checked by the same Load call. The whole-program analyzers
	// (unusedexport, unreadfield) read it so their findings do not depend
	// on which patterns were given.
	readers []*Package

	// match lists the patterns that matched the package.
	match []string
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
// the patterns are returned. Every other package of the main module, and
// every package of a module in one of its immediate subdirectories (a
// consumer such as the benchmark module), is type-checked too, as a
// reader for the whole-program analyzers; dependencies are loaded as
// export data for type information.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	out, err := goList(dir, "-m", "-json=Path,Dir")
	if err != nil {
		return nil, err
	}
	var mod struct{ Path, Dir string }
	if err := json.Unmarshal(out, &mod); err != nil {
		return nil, fmt.Errorf("go list -m: decoding output: %v", err)
	}
	wanted := map[string]bool{}
	for _, p := range patterns {
		wanted[p] = true
	}
	module, err := check(dir, slices.Concat(patterns, []string{mod.Path + "/..."}))
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, pkg := range module {
		for _, m := range pkg.match {
			if wanted[m] {
				pkgs = append(pkgs, pkg)
				break
			}
		}
	}
	nested, err := filepath.Glob(filepath.Join(mod.Dir, "*", "go.mod"))
	if err != nil {
		return nil, err
	}
	readers := module
	for _, gomod := range nested {
		consumers, err := check(filepath.Dir(gomod), []string{"./..."})
		if err != nil {
			return nil, err
		}
		readers = append(readers, consumers...)
	}
	for _, pkg := range module {
		pkg.readers = readers
	}
	return pkgs, nil
}

// check runs `go list -export -deps` over patterns in dir and
// type-checks, from source, every listed package that is neither a
// standard package nor only a dependency; the rest are imported from
// export data.
func check(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{
		"-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,Match,Standard,DepOnly,Error",
	}, patterns...)
	out, err := goList(dir, args...)
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

	var pkgs []*Package
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
		pkgs = append(pkgs, &Package{
			Path:  t.ImportPath,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
			Class: classify(t.ImportPath, dirs),
			dirs:  dirs,
			match: t.Match,
		})
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
