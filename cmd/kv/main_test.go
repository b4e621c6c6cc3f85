package main_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDriver compiles kv once into the test's temp dir.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "kv")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building kv: %v\n%s", err, out)
	}
	return bin
}

// smallLoad keeps driver runs to a fraction of a second.
var smallLoad = []string{"-workload", "keys=64,ops=300,period=150"}

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
		{"clean run", smallLoad, 0, []string{"scheme", "throughput", "invariants        ok"}},
		{"durable forced on", append([]string{"-durable"}, smallLoad...), 0,
			[]string{"durability        appends:", "invariants        ok"}},
		{"wipe recovery", append([]string{"-faults", "wipe=p2@20000+5000,ckpt=10000,seed=7"}, smallLoad...), 0,
			[]string{"durability        appends:", "crash recovery    wipes:1", "invariants        ok"}},
		{"bad workload", []string{"-workload", "nope"}, 2, []string{"kv:"}},
		{"bad hetero", []string{"-hetero", "nope"}, 2, []string{"kv:"}},
		{"bad scheme", []string{"-scheme", "xyz"}, 2, nil},
		{"om unsupported", []string{"-scheme", "om"}, 2, []string{"object migration"}},
		{"static om policy unsupported", []string{"-policy", "static:om"}, 2, []string{"kv:", "object migration"}},
		{"fault window off the machine", []string{"-faults", "wipe=p40@1000+100"}, 2,
			[]string{"kv: fault window targets proc 40, machine has [0,12)"}},
		{"bad faults", []string{"-faults", "wipe=oops"}, 2, []string{"kv:"}},
		{"bad policy", []string{"-policy", "nope"}, 2, []string{"kv:"}},
		{"policy-stats without policy", []string{"-policy-stats", "x.json"}, 2, []string{"-policy"}},
		{"nonpositive store", []string{"-store", "0"}, 2, []string{"positive"}},
		{"unwritable policy-stats", append([]string{"-policy", "costmodel", "-policy-stats", "/nonexistent-dir/x.json"}, smallLoad...), 1,
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
