// Package clitest holds the helpers the tests of the application CLIs,
// the applications and the examples share: building a program's binary,
// pinning its stdout against a golden file, and pinning what a finished
// run hands to the next.
package clitest

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// Build compiles the command in the test's working directory into the
// test's temp dir and returns the binary's path.
//
//simvet:allow test-helper package: the CLI, example and app tests build their binaries with it
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
// testdata/stdout_golden.txt (see Compare). Every run must exit 0.
// Regenerate the file with
//
//	go test ./cmd/<name> -run TestStdoutGolden -update
//
// (./examples/<name> for an example; make golden-update does every one).
//
//simvet:allow test-helper package: the CLI and example golden tests pin their stdout with it
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
	Compare(t, filepath.Join("testdata", "stdout_golden.txt"), b.String())
}

// Compare checks got byte-for-byte against the golden file at path and
// reports the first line that differs. With -update it rewrites the file
// instead.
func Compare(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is intended)", path, i+1, g, w)
		}
	}
}
