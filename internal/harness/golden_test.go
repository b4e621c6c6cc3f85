package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden rendered-output file")

// goldenExperiments are the experiment ids whose rendered text the golden
// file pins: between them they cover every table paperfigs prints.
var goldenExperiments = []string{"all", "ext-fault", "ext-kv", "ext-recovery", "scale"}

// TestRenderedOutputGolden renders every table at quick windows, seed 1,
// on one worker and compares the text byte-for-byte with the committed
// file. A change that is meant to leave simulated results alone must
// pass it unchanged; one that moves results regenerates the file with
//
//	go test ./internal/harness -run TestRenderedOutputGolden -update
//
// and the diff of testdata/golden_quick.txt shows exactly which cells
// moved.
func TestRenderedOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment")
	}
	var b strings.Builder
	for _, id := range goldenExperiments {
		tables, err := Run(id, Options{Quick: true, Seed: 1, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b.WriteString("#### " + id + "\n")
		for _, tb := range tables {
			b.WriteString(tb.String())
			b.WriteString("\n")
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "golden_quick.txt")
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
	if got != string(want) {
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
				t.Fatalf("rendered output differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is intended)", path, i+1, g, w)
			}
		}
	}
}
