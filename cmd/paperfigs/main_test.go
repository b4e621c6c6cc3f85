package main_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"compmig/internal/profile"
)

// buildDriver compiles the command at import path pkg into the test's temp dir.
func buildDriver(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// checkBenchReport reads a -bench-json report back through the shared
// report type: every entry must carry the WAL counter, and benchdiff
// must compare the report with itself cleanly, marking nothing.
func checkBenchReport(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep profile.BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) == 0 {
		t.Fatal("report has no entries")
	}
	for _, e := range rep.Experiments {
		if e.Counters["store.wal_appends"] == 0 {
			t.Errorf("%s workers=%d: no store.wal_appends counter: %v", e.Experiment, e.Workers, e.Counters)
		}
	}
	out, err := exec.Command(buildDriver(t, "compmig/cmd/benchdiff"), path, path).CombinedOutput()
	if err != nil {
		t.Fatalf("benchdiff self-diff: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "(was ") || !strings.Contains(string(out), "store.wal_appends=") {
		t.Errorf("benchdiff self-diff is not a quiet counter listing:\n%s", out)
	}
}

// TestDriverExitCodes audits the exit-code contract: 0 = experiment ran,
// 2 = bad flags. The one exit-0 row doubles as the CLI path through the
// recovery sweep: every point must hold its invariants or the renderer
// panics the run. The -bench-json row runs the same sweep in
// measurement mode and reads its report back.
func TestDriverExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the driver")
	}
	bin := buildDriver(t, "compmig/cmd/paperfigs")
	report := filepath.Join(t.TempDir(), "out.json")
	cases := []struct {
		name  string
		args  []string
		exit  int
		want  []string
		check func(*testing.T, string)
	}{
		{"recovery sweep", []string{"-exp", "ext-recovery", "-quick"}, 0,
			[]string{"EXT-RECOVERY", "wipes=2,ckpt=10k", "ok"}, nil},
		{"recovery bench json", []string{"-exp", "ext-recovery", "-quick", "-workers", "2", "-bench-json", report}, 0,
			[]string{"ext-recovery workers=1"}, checkBenchReport},
		{"unknown experiment", []string{"-exp", "nope"}, 2, []string{"nope"}, nil},
		{"bad format", []string{"-format", "xml"}, 2, []string{"-format"}, nil},
		{"bad faults", []string{"-faults", "wipe=oops"}, 2, []string{"paperfigs:"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			code := 0
			if err != nil {
				var exitErr *exec.ExitError
				if !errors.As(err, &exitErr) {
					t.Fatalf("running driver: %v\n%s", err, out)
				}
				code = exitErr.ExitCode()
			}
			if code != tc.exit {
				t.Fatalf("exit %d, want %d\n%s", code, tc.exit, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("output missing %q\n%s", w, out)
				}
			}
			if tc.check != nil {
				tc.check(t, report)
			}
		})
	}
}
