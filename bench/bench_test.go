package bench

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"compmig/internal/apps/kv"
	"compmig/internal/fault"
	"compmig/internal/load"
)

// TestWorkloadsQuick runs every workload at quick windows, one rep per
// phase, at seed 1 (traced) and the held-out seed 2. Every phase runs
// the same quick configs, so a passing run is also deterministic from
// rep to rep and between traced and untraced reps.
func TestWorkloadsQuick(t *testing.T) {
	declared := declaredMetrics(t)
	for _, seed := range []uint64{1, 2} {
		for _, w := range Workloads() {
			trace := seed == 1
			rep, err := Run(w, Options{Seed: seed, Quick: true, Trace: trace})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			passes := 2
			if trace {
				passes = 3
			}
			if rep.Attempted != passes*len(w.Configs) || rep.Failed != 0 {
				t.Errorf("%s seed %d: %d of %d runs failed, want 0 of %d: %v",
					w.Name, seed, rep.Failed, rep.Attempted, passes*len(w.Configs), rep.Failures)
			}
			checkNames(t, w.Name+" end-to-end", rep.EndToEnd, declared["end_to_end"])
			for name, m := range rep.EndToEnd {
				if !(m.Value > 0) {
					t.Errorf("%s seed %d: %s = %v, want > 0", w.Name, seed, name, m.Value)
				}
			}
			if trace {
				checkNames(t, w.Name+" per-layer", rep.PerLayer, declared["per_layer"])
				if f := rep.PerLayer["fail_frac"].Value; f != 0 {
					t.Errorf("%s: fail_frac = %v", w.Name, f)
				}
			}
		}
	}
}

// TestDroppedAppendCountsAsFailed adds a kv wipe run that loses its
// first WAL append next to a clean one: only the lossy run's passes
// fail.
func TestDroppedAppendCountsAsFailed(t *testing.T) {
	// Wipe every storage processor late in the run: the dropped record's
	// home loses it, and with a large uniform key space its key is not
	// written again to hide the loss.
	var wipes []fault.Window
	for p := range 8 {
		wipes = append(wipes, fault.Window{Proc: p, Start: 150000, Dur: 8000, Wipe: true})
	}
	base := kv.Config{
		Scheme:  cm,
		Durable: true,
		Faults:  &fault.Spec{Windows: wipes},
		Load:    &load.Spec{Keys: 4096, Period: 220, ReadPct: 45, WritePct: 50, ScanPct: 5, ScanLen: 8},
	}
	lossy := base
	lossy.DropNthAppend = 1
	w := Workload{Name: "negative", Configs: []Config{
		kvRun("clean", base, 1000),
		kvRun("drop-append-1", lossy, 1000),
	}}
	rep, err := Run(w, Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 4 || rep.Failed != 2 {
		t.Fatalf("attempted %d, failed %d, want 4 and 2: %v", rep.Attempted, rep.Failed, rep.Failures)
	}
	for _, f := range rep.Failures {
		if !strings.HasPrefix(f, "kv/drop-append-1: lost update") {
			t.Errorf("unexpected failure %q", f)
		}
	}
}

// declaredMetrics reads the metric names BENCHMARK.json declares, by
// section.
func declaredMetrics(t *testing.T) map[string][]string {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, section := range []string{"end_to_end", "per_layer"} {
		var ms []struct{ Name, Unit string }
		if err := json.Unmarshal(spec[section], &ms); err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			out[section] = append(out[section], m.Name+" "+m.Unit)
		}
		slices.Sort(out[section])
	}
	return out
}

// checkNames asserts a report emits exactly the declared metrics with
// the declared units.
func checkNames(t *testing.T, what string, got map[string]Metric, want []string) {
	t.Helper()
	var names []string
	for name, m := range got {
		names = append(names, name+" "+m.Unit)
	}
	slices.Sort(names)
	if !slices.Equal(names, want) {
		t.Errorf("%s metrics %v, BENCHMARK.json declares %v", what, names, want)
	}
}
