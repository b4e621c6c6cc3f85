package main_test

import (
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildDriver compiles simvet once into the test's temp dir.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "simvet")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building simvet: %v\n%s", err, out)
	}
	return bin
}

func fixtureDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDriverGatesOnViolations runs the built driver against the seeded
// fixture module: it must exit 1 and emit machine-readable findings.
func TestDriverGatesOnViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the driver")
	}
	bin := buildDriver(t)

	cmd := exec.Command(bin, "-json", "compmig/internal/analysis/fixtures/...")
	cmd.Dir = fixtureDir(t)
	out, err := cmd.Output()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit code 1 on fixture violations, got err=%v\n%s", err, out)
	}
	var findings []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	seen := map[string]bool{}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("finding missing position or message: %+v", f)
		}
		seen[f.Analyzer] = true
	}
	for _, name := range []string{"nodeterminism", "maporder", "simpurity", "seededrand", "cyclecharge", "unusedexport", "unreadfield", "directive"} {
		if !seen[name] {
			t.Errorf("no %s finding over the fixture tree; analyzer dead?", name)
		}
	}
}

// TestDriverCleanTree runs the driver on the compliant fixture package
// and expects a zero exit.
func TestDriverCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the driver")
	}
	bin := buildDriver(t)
	cmd := exec.Command(bin, "compmig/internal/analysis/fixtures/clean")
	cmd.Dir = fixtureDir(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("want clean exit on compliant package, got %v\n%s", err, out)
	}
}
