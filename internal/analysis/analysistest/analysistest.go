// Package analysistest runs a simvet analyzer over fixture packages and
// checks its diagnostics against `// want` expectations, mirroring the
// x/tools package of the same name.
//
// An expectation is a trailing comment on the line the diagnostic is
// reported at, holding one or more regular expressions in double quotes
// or backquotes:
//
//	eng.Schedule(1, fn) // want `Schedule called inside map iteration`
//
// Every diagnostic must match an expectation on its line and every
// expectation must be matched by exactly one diagnostic; anything else
// fails the test.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"compmig/internal/analysis"
)

// TestData returns the fixture module root conventionally used by the
// simvet tests: testdata/src under the calling test's working directory.
//
//simvet:allow test-helper package: the analyzer tests locate their fixture module with it
func TestData(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(wd, "testdata", "src")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("fixture module not found: %v", err)
	}
	return dir
}

// want holds one parsed expectation.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("//\\s*want\\s+(.*)$")

// Run loads the packages matched by patterns from the fixture module at
// dir, applies analyzer a, and reports any mismatch between diagnostics
// and want comments.
//
//simvet:allow test-helper package: the analyzer tests check each fixture's want comments with it
func Run(t *testing.T, dir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					res, err := parseWant(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
					}
					for _, re := range res {
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s diagnostic matched %q", w.file, w.line, a.Name, w.re)
		}
	}
}

// parseWant splits a want payload into its quoted regular expressions.
func parseWant(s string) ([]*regexp.Regexp, error) {
	var res []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		var raw, rest string
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquote in %q", s)
			}
			raw, rest = s[1:1+end], s[2+end:]
		case '"':
			// Find the closing quote, honoring escapes, then unquote.
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated quote in %q", s)
			}
			var err error
			raw, err = strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			rest = s[end+1:]
		default:
			return nil, fmt.Errorf("want expectation must be quoted or backquoted, got %q", s)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, err
		}
		res = append(res, re)
		s = strings.TrimSpace(rest)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("empty want comment")
	}
	return res, nil
}
