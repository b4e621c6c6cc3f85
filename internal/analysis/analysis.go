// Package analysis is simvet's analysis framework: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface (Analyzer,
// Pass, Diagnostic) plus the simvet-specific machinery shared by its seven
// analyzers (five determinism checks, the unusedexport dead-API check and
// the unreadfield dead-field check) — package classification (see
// manifest.go), the //simvet:allow escape hatch, and an offline package
// loader built on `go list -export` and the standard library's gc
// export-data importer (see load.go).
//
// The framework exists because this repository pins zero third-party
// modules: the loader and the analyzers use only the standard library, so
// `make simvet` works in a hermetic build environment with no module
// downloads. The API mirrors x/tools closely enough that an analyzer body
// could be ported to the real driver by changing imports.
//
// # Directives
//
// Two comment directives drive the suite:
//
//	//simvet:allow <justification>
//
// suppresses any simvet diagnostic reported on the same line or on the
// line directly below the comment. The justification is mandatory; a bare
// //simvet:allow is itself an error that cannot be suppressed.
//
//	//simvet:package <class>
//
// adds a classification (sim-charged, host-side, cycle-charged) to the
// enclosing package, overriding the path manifest. The checked-in tree is
// classified by manifest.go; the directive exists so analysis fixtures and
// future out-of-tree packages can opt in.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one simvet check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -json output.
	Name string

	// Doc is the analyzer's help text; the first line is the summary.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass provides one analyzer with one type-checked package and collects
// its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Class is the package's simvet classification (manifest plus any
	// //simvet:package directives).
	Class Class

	pkg  *Package
	diag *[]Diagnostic

	// used is the set of names the readers reference (unusedexport), and
	// read the set of struct fields their code reads (unreadfield).
	used, read map[useKey]bool
}

// Reportf records a diagnostic at pos unless a //simvet:allow directive
// covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.pkg.allowed(position.Filename, position.Line) {
		return
	}
	*p.diag = append(*p.diag, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ObjectOf is Info.ObjectOf with a nil guard for identifiers the checker
// did not resolve.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// Callee resolves the called function or method of a call expression, or
// nil for calls through function-typed values and conversions.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func { return calleeFunc(p.Info, call) }

// allowRe matches the allow directive; the justification is group 1.
var allowRe = regexp.MustCompile(`^//simvet:allow(?:[ \t]+(.*))?$`)

// packageRe matches the package-classification directive.
var packageRe = regexp.MustCompile(`^//simvet:package[ \t]+([a-z-]+)[ \t]*$`)

// directives holds the parsed simvet comments of one package.
type directives struct {
	// allow maps file name to the set of source lines covered by an
	// //simvet:allow directive (the directive's own line and the next).
	allow map[string]map[int]bool

	// classes lists the //simvet:package classifications declared by any
	// file of the package.
	classes []string

	// errs are malformed directives (missing justification, unknown
	// class); they are unconditional diagnostics.
	errs []Diagnostic
}

// parseDirectives scans every comment of every file.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{allow: map[string]map[int]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimRight(c.Text, " \t")
				if !strings.HasPrefix(text, "//simvet:") {
					continue
				}
				pos := fset.Position(c.Pos())
				if m := allowRe.FindStringSubmatch(text); m != nil {
					if strings.TrimSpace(m[1]) == "" {
						d.errs = append(d.errs, Diagnostic{
							Analyzer: "directive",
							Pos:      pos,
							Message:  "//simvet:allow requires a justification (\"//simvet:allow <reason>\")",
						})
						continue
					}
					lines := d.allow[pos.Filename]
					if lines == nil {
						lines = map[int]bool{}
						d.allow[pos.Filename] = lines
					}
					lines[pos.Line] = true
					lines[pos.Line+1] = true
					continue
				}
				if m := packageRe.FindStringSubmatch(text); m != nil {
					if _, ok := classByName[m[1]]; !ok {
						d.errs = append(d.errs, Diagnostic{
							Analyzer: "directive",
							Pos:      pos,
							Message:  fmt.Sprintf("unknown //simvet:package class %q (want %s)", m[1], strings.Join(classNames(), ", ")),
						})
						continue
					}
					d.classes = append(d.classes, m[1])
					continue
				}
				d.errs = append(d.errs, Diagnostic{
					Analyzer: "directive",
					Pos:      pos,
					Message:  fmt.Sprintf("unknown simvet directive %q", text),
				})
			}
		}
	}
	return d
}

// Run applies each analyzer to each package and returns all diagnostics
// ordered by position. Malformed directives are reported as analyzer
// "directive" findings. pkgs come from one Load call; the used names
// and read fields that unusedexport and unreadfield check against are
// built once, from every reader package that call loaded.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var readers []*Package
	if len(pkgs) > 0 {
		readers = pkgs[0].readers
	}
	used, read := usedNames(readers), readFields(readers)
	for _, pkg := range pkgs {
		diags = append(diags, pkg.dirs.errs...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Class:    pkg.Class,
				pkg:      pkg,
				diag:     &diags,
				used:     used,
				read:     read,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
