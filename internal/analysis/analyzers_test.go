package analysis_test

import (
	"strings"
	"testing"

	"compmig/internal/analysis"
	"compmig/internal/analysis/analysistest"
)

// TestAnalyzers drives each analyzer over its fixture package: every
// `// want` line must fire and nothing else may (the fixtures' Good*
// functions are the compliant variants).
func TestAnalyzers(t *testing.T) {
	tests := []struct {
		a   *analysis.Analyzer
		pkg string
	}{
		{analysis.NoDeterminism, "compmig/internal/analysis/fixtures/nodeterminism"},
		{analysis.MapOrder, "compmig/internal/analysis/fixtures/maporder"},
		{analysis.SimPurity, "compmig/internal/analysis/fixtures/simpurity"},
		{analysis.SeededRand, "compmig/internal/analysis/fixtures/seededrand"},
		{analysis.CycleCharge, "compmig/internal/analysis/fixtures/cyclecharge"},
		{analysis.UnusedExport, "compmig/internal/analysis/fixtures/unusedexport/def"},
		{analysis.UnreadField, "compmig/internal/analysis/fixtures/unreadfield/def"},
	}
	for _, tc := range tests {
		t.Run(tc.a.Name, func(t *testing.T) {
			analysistest.Run(t, analysistest.TestData(t), tc.a, tc.pkg)
		})
	}
}

// TestUnusedExportIgnoresPatterns checks that unusedexport builds its
// used set from the whole module: the def fixture's findings are the
// same whether def is loaded alone or together with its user.
func TestUnusedExportIgnoresPatterns(t *testing.T) {
	checkIgnoresPatterns(t, analysis.UnusedExport, "unusedexport")
}

// TestUnreadFieldIgnoresPatterns does the same for unreadfield's read
// set.
func TestUnreadFieldIgnoresPatterns(t *testing.T) {
	checkIgnoresPatterns(t, analysis.UnreadField, "unreadfield")
}

// checkIgnoresPatterns compares a's findings in the fixture package
// <dir>/def loaded alone and loaded together with its sibling
// <dir>/user.
func checkIgnoresPatterns(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	const fixtures = "compmig/internal/analysis/fixtures/"
	findings := func(patterns ...string) []string {
		pkgs, err := analysis.Load(analysistest.TestData(t), patterns...)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range diags {
			if strings.Contains(d.Pos.Filename, "/"+dir+"/def/") {
				out = append(out, d.String())
			}
		}
		return out
	}
	alone := findings(fixtures + dir + "/def")
	both := findings(fixtures+dir+"/def", fixtures+dir+"/user")
	if len(alone) == 0 || strings.Join(alone, "\n") != strings.Join(both, "\n") {
		t.Errorf("def alone:\n%s\ndef with user:\n%s", strings.Join(alone, "\n"), strings.Join(both, "\n"))
	}
}

// TestDirectiveErrors checks the escape-hatch grammar: a bare
// //simvet:allow and an unknown directive are findings in their own
// right, and a bare allow suppresses nothing (the host-clock use under
// it still fires).
func TestDirectiveErrors(t *testing.T) {
	pkgs, err := analysis.Load(analysistest.TestData(t), "compmig/internal/analysis/fixtures/directive")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, analysis.Suite)
	if err != nil {
		t.Fatal(err)
	}
	var missing, unknown, clock bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "directive" && strings.Contains(d.Message, "requires a justification"):
			missing = true
		case d.Analyzer == "directive" && strings.Contains(d.Message, "unknown simvet directive"):
			unknown = true
		case d.Analyzer == "nodeterminism" && strings.Contains(d.Message, "time.Now"):
			clock = true
		}
	}
	if !missing || !unknown || !clock {
		t.Errorf("want justification-missing, unknown-directive, and unsuppressed time.Now findings; got:\n%v", diags)
	}
	if len(diags) != 3 {
		t.Errorf("want exactly 3 findings, got %d:\n%v", len(diags), diags)
	}
}

// TestClassify pins the manifest: the simulation core must be
// sim-charged, the policy layer host-side, and the runtime
// cycle-charged, or the analyzers silently stop auditing them.
func TestClassify(t *testing.T) {
	pkgs, err := analysis.Load("", "compmig/internal/sim", "compmig/internal/core", "compmig/internal/policy", "compmig/internal/apps/btree")
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]analysis.Class{}
	for _, p := range pkgs {
		classes[p.Path] = p.Class
	}
	if !classes["compmig/internal/sim"].SimCharged {
		t.Error("internal/sim must be sim-charged")
	}
	if c := classes["compmig/internal/core"]; !c.SimCharged || !c.CycleCharged {
		t.Errorf("internal/core must be sim-charged and cycle-charged, got %+v", c)
	}
	if c := classes["compmig/internal/policy"]; !c.HostSide || c.SimCharged {
		t.Errorf("internal/policy must be host-side only, got %+v", c)
	}
	if !classes["compmig/internal/apps/btree"].SimCharged {
		t.Error("internal/apps/btree must be sim-charged (apps/... pattern)")
	}
}
