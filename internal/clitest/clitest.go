// Package clitest holds the helpers the application CLIs' tests share:
// building a driver binary and pinning its stdout against a golden file.
package clitest

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the CLI stdout golden file")

// Build compiles the command in the test's working directory into the
// test's temp dir and returns the binary's path.
func Build(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// Golden runs bin once per argument list and compares the concatenated
// stdout, each run under a "$ name args" header, byte-for-byte with
// testdata/stdout_golden.txt. Every run must exit 0. Regenerate the file
// with
//
//	go test ./cmd/<name> -run TestStdoutGolden -update
func Golden(t *testing.T, bin string, runs [][]string) {
	t.Helper()
	var b strings.Builder
	for _, args := range runs {
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("%s %s: %v", filepath.Base(bin), strings.Join(args, " "), err)
		}
		b.WriteString("$ " + filepath.Base(bin) + " " + strings.Join(args, " ") + "\n")
		b.Write(out)
		b.WriteString("\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "stdout_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("stdout differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is intended)", path, i+1, g, w)
		}
	}
}
