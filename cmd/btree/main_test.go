package main_test

import (
	"errors"
	"os/exec"
	"strings"
	"testing"

	"compmig/internal/clitest"
)

// smallRun keeps driver runs to a fraction of a second.
var smallRun = []string{"-keys", "1000", "-threads", "4", "-warmup", "5000", "-measure", "40000"}

// TestDriverExitCodes audits the exit-code contract: 0 = clean run,
// 1 = runtime failure (invariant violation, unwritable output), 2 = bad
// flags. Each row runs the built binary and checks both the code and a
// few output substrings.
func TestDriverExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the driver")
	}
	bin := clitest.Build(t, "btree")
	cases := []struct {
		name string
		args []string
		exit int
		want []string
	}{
		{"clean run", smallRun, 0, []string{"scheme", "throughput", "tree height"}},
		{"durable forced on", append([]string{"-durable"}, smallRun...), 0,
			[]string{"durability        appends:", "invariants        ok"}},
		{"wipe recovery", append([]string{"-faults", "wipe=p2@20000+5000,ckpt=10000,seed=7"}, smallRun...), 0,
			[]string{"durability        appends:", "crash recovery    wipes:1", "invariants        ok"}},
		{"bad lookups fraction", []string{"-lookups", "1.5"}, 2, []string{"fraction"}},
		{"nonpositive fanout", []string{"-fanout", "0"}, 2, []string{"positive"}},
		{"bad scheme", []string{"-scheme", "xyz"}, 2, nil},
		{"bad faults", []string{"-faults", "ckpt=oops"}, 2, []string{"btree:"}},
		{"bad policy", []string{"-policy", "nope"}, 2, []string{"btree:"}},
		{"fault window off the machine", []string{"-faults", "crash=p64@1000+100"}, 2,
			[]string{"btree: fault window targets proc 64, machine has [0,64)"}},
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
	clitest.Golden(t, clitest.Build(t, "btree"), [][]string{
		append([]string{"-policy", "costmodel"}, smallRun...),
		append([]string{"-policy", "bandit", "-durable"}, smallRun...),
		append([]string{"-durable"}, smallRun...),
		append([]string{"-faults", "wipe=p5@20000+5000,ckpt=10000,seed=7"}, smallRun...),
		append([]string{"-scheme", "om"}, smallRun...),
		append([]string{"-scheme", "om", "-faults", "wipe=p10@20000+5000,ckpt=10000,seed=7"}, smallRun...),
	})
}
