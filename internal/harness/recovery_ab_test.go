package harness

import (
	"strings"
	"testing"

	"compmig/internal/fault"
)

// TestDurabilityOffIsByteIdentical is the tentpole's A/B identity
// contract: with durability disabled and no wipe windows, the store is
// never constructed, so the whole suite renders byte-identically to a
// run that never heard of it. A ckpt-only spec (interval set, no
// windows) is the sharpest probe: it is non-nil yet must change
// nothing, because the interval only matters once a wipe or -durable
// switches the store on.
func TestDurabilityOffIsByteIdentical(t *testing.T) {
	base := renderAll(t, Options{Quick: true, Workers: 4})
	ckptOnly := renderAll(t, Options{Quick: true, Workers: 4, Faults: &fault.Spec{Ckpt: 10000}})
	if base != ckptOnly {
		t.Error("ckpt-only fault spec perturbed the suite output — durability switched on without a wipe")
	}
}

// TestRecoverySweepReproducible pins the reproducible-recovery-trace
// contract at the harness level: same seed, same table — serial and
// parallel alike.
func TestRecoverySweepReproducible(t *testing.T) {
	render := func(workers int) string {
		tabs, err := Run("ext-recovery", Options{Quick: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tb := range tabs {
			b.WriteString(tb.String())
		}
		return b.String()
	}
	first := render(1)
	if again := render(1); again != first {
		t.Error("same-seed recovery sweep diverged between runs")
	}
	if par := render(4); par != first {
		t.Error("recovery sweep differs between workers=1 and workers=4")
	}
}

// TestRecoverySweepInvariantsHold asserts the durability guarantee at
// every sweep point — the renderer already panics if a point ran
// without the store or recovered the wrong number of wipes; here the
// invariant column must be clean and the heaviest plan must have done
// real replay work.
func TestRecoverySweepInvariantsHold(t *testing.T) {
	tabs, err := Run("ext-recovery", Options{Quick: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || tabs[0].ID != "EXT-RECOVERY" {
		t.Fatalf("ext-recovery rendered %d tables, want one EXT-RECOVERY", len(tabs))
	}
	tb := tabs[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows, want 3 mechanisms", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if inv := row[len(row)-1]; inv != "ok" {
			t.Errorf("%s: invariants %q", row[0], inv)
		}
		if replays := row[len(row)-3]; replays == "0" {
			t.Errorf("%s: two wipes recovered with zero WAL replays", row[0])
		}
	}
}
