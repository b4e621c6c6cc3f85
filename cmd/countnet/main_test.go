package main_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDriver compiles countnet once into the test's temp dir.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "countnet")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building countnet: %v\n%s", err, out)
	}
	return bin
}

// smallRun keeps driver runs to a fraction of a second.
var smallRun = []string{"-threads", "8", "-warmup", "10000", "-measure", "60000"}

// TestDriverExitCodes audits the exit-code contract: 0 = clean run,
// 1 = runtime failure (invariant violation, unwritable output), 2 = bad
// flags. Each row runs the built binary and checks both the code and a
// few output substrings.
func TestDriverExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the driver")
	}
	bin := buildDriver(t)
	cases := []struct {
		name string
		args []string
		exit int
		want []string
	}{
		{"clean run", smallRun, 0, []string{"scheme", "throughput", "requests"}},
		{"durable forced on", append([]string{"-durable"}, smallRun...), 0,
			[]string{"durability        appends:", "invariants        ok"}},
		{"wipe recovery", append([]string{"-faults", "wipe=p2@40000+5000,ckpt=10000,seed=7"}, smallRun...), 0,
			[]string{"durability        appends:", "crash recovery    wipes:1", "invariants        ok"}},
		{"nonpositive width", []string{"-width", "0"}, 2, []string{"positive"}},
		{"bad scheme", []string{"-scheme", "xyz"}, 2, nil},
		{"bad faults", []string{"-faults", "wipe=p2@oops"}, 2, []string{"countnet:"}},
		{"bad policy", []string{"-policy", "nope"}, 2, []string{"countnet:"}},
		{"fault window off the machine", []string{"-faults", "crash=p99@1000+100"}, 2,
			[]string{"countnet: fault window targets proc 99, machine has [0,32)"}},
		{"policy-stats without policy", []string{"-policy-stats", "x.json"}, 2, []string{"-policy"}},
		{"unwritable policy-stats", append([]string{"-policy", "costmodel", "-policy-stats", "/nonexistent-dir/x.json"}, smallRun...), 1,
			[]string{"writing policy stats"}},
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
		})
	}
}
