package harness

import (
	"strings"
	"testing"

	"compmig/internal/fault"
)

func renderAll(t *testing.T, o Options) string {
	t.Helper()
	tabs, err := Run("all", o)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range tabs {
		b.WriteString(tb.String())
		b.WriteString(tb.Markdown())
	}
	return b.String()
}

// TestFaultZeroSpecIsByteIdentical is the tentpole's zero-fault
// contract: a disabled fault plan (zero spec, or an empty -faults string
// nil) attaches no injector, so the whole suite renders byte-identically
// to a run that never heard of faults.
func TestFaultZeroSpecIsByteIdentical(t *testing.T) {
	nilPlan := renderAll(t, Options{Quick: true, Workers: 4})
	zeroPlan := renderAll(t, Options{Quick: true, Workers: 4, Faults: &fault.Spec{}})
	if nilPlan != zeroPlan {
		t.Error("zero fault spec perturbed the suite output")
	}
	parsed, err := ParseFaults("")
	if err != nil || parsed != nil {
		t.Fatalf(`ParseFaults("") = %v, %v; want nil, nil`, parsed, err)
	}
	emptyFlag := renderAll(t, Options{Quick: true, Workers: 4, Faults: parsed})
	if nilPlan != emptyFlag {
		t.Error(`-faults "" perturbed the suite output`)
	}
}

// An enabled plan must actually reach the applications through
// Options.Faults — otherwise the zero-spec identity above is vacuous.
func TestFaultSpecPerturbsExperiments(t *testing.T) {
	clean, err := Run("table1", quick)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run("table1", Options{Quick: true, Faults: &fault.Spec{Drop: 0.05, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if clean[0].String() == faulty[0].String() {
		t.Error("5% drop plan left table1 untouched — Options.Faults not plumbed?")
	}
}

// TestFaultSweepReproducible pins the determinism contract for faulty
// runs: same seed, same tables — serial and parallel alike.
func TestFaultSweepReproducible(t *testing.T) {
	render := func(workers int) string {
		tabs, err := Run("ext-fault", Options{Quick: true, Workers: workers})
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
		t.Error("same-seed faulty sweep diverged between runs")
	}
	if par := render(4); par != first {
		t.Error("faulty sweep differs between workers=1 and workers=4")
	}
}

// TestFaultSweepInvariantsHold asserts both applications survive the
// sweep's highest drop rate with their invariant checkers clean, and
// that recovery work actually happened.
func TestFaultSweepInvariantsHold(t *testing.T) {
	tabs, err := Run("ext-fault", Options{Quick: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 || tabs[0].ID != "EXT-FAULT" || tabs[1].ID != "EXT-FAULT-BTREE" {
		t.Fatalf("ext-fault rendered %d tables, want EXT-FAULT and EXT-FAULT-BTREE", len(tabs))
	}
	for _, tb := range tabs {
		if len(tb.Rows) != 3 {
			t.Fatalf("%s: %d rows, want 3 mechanisms", tb.ID, len(tb.Rows))
		}
		for _, row := range tb.Rows {
			inv := row[len(row)-1]
			if inv != "ok" {
				t.Errorf("%s %s: invariants %q", tb.ID, row[0], inv)
			}
			if retx := row[len(row)-2]; retx == "-" || retx == "0" {
				t.Errorf("%s %s: no retransmissions at 5%% drop (retx=%s)", tb.ID, row[0], retx)
			}
		}
	}
}
