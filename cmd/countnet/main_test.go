package main_test

import (
	"errors"
	"os/exec"
	"strings"
	"testing"

	"compmig/internal/clitest"
)

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
	bin := clitest.Build(t, "countnet")
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
		{"width not a power of two", []string{"-width", "6"}, 2, []string{"countnet: -width must be a power of two >= 2 (got 6)"}},
		{"width one", []string{"-width", "1"}, 2, []string{"countnet: -width must be a power of two"}},
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

// TestStdoutGolden pins the driver's full stdout for policy runs (the
// decision line), durable runs, a wipe run (durability and recovery
// lines) and an object-migration run.
func TestStdoutGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the driver")
	}
	clitest.Golden(t, clitest.Build(t, "countnet"), [][]string{
		append([]string{"-policy", "costmodel"}, smallRun...),
		append([]string{"-policy", "bandit", "-durable"}, smallRun...),
		append([]string{"-durable"}, smallRun...),
		append([]string{"-faults", "wipe=p2@40000+5000,ckpt=10000,seed=7"}, smallRun...),
		append([]string{"-scheme", "om"}, smallRun...),
		append([]string{"-scheme", "om", "-faults", "wipe=p0@40000+5000,ckpt=10000,seed=7"}, smallRun...),
	})
}
