package harness

import (
	"path/filepath"
	"strings"
	"testing"

	"compmig/internal/clitest"
)

// goldenExperiments are the experiment ids whose rendered text the golden
// file pins: between them they cover every table paperfigs prints.
var goldenExperiments = []string{"all", "ext-fault", "ext-kv", "ext-recovery", "ext-ablation", "scale"}

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
	clitest.Compare(t, filepath.Join("testdata", "golden_quick.txt"), b.String())
}
