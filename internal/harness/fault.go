package harness

import (
	"fmt"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
	"compmig/internal/core"
	"compmig/internal/fault"
)

// faultRates are the ext-fault sweep's per-transmission drop rates.
// Each faulty point also duplicates at half the drop rate and jitters
// deliveries by up to 40 cycles; rate 0 is the clean baseline (no
// injector attached at all).
var faultRates = []float64{0, 0.02, 0.05}

// faultSchemes are the mechanisms the sweep degrades. Object migration
// is covered by the recovery unit tests; the paper's three core
// mechanisms are what the figure compares.
func faultSchemes() []core.Scheme {
	return []core.Scheme{
		{Mechanism: core.RPC},
		{Mechanism: core.Migrate},
		{Mechanism: core.SharedMem},
	}
}

// faultPlan builds the sweep's plan for one drop rate (nil at rate 0).
// This experiment ignores Options.Faults — the sweep is the plan.
func faultPlan(rate float64, seed uint64) *fault.Spec {
	if rate == 0 {
		return nil
	}
	return &fault.Spec{Drop: rate, Dup: rate / 2, DelayMax: 40, Seed: seed}
}

// faultExp sweeps fault rate against counting-network completion
// throughput for each mechanism, and reports the recovery work and the
// post-run invariant verdict at the highest rate.
func faultExp(o Options) experiment {
	warmup, measure := o.windows()
	schemes := faultSchemes()
	var specs []RunSpec
	for _, s := range schemes {
		for _, rate := range faultRates {
			cfg := countnet.Config{
				Threads: 16, Scheme: s,
				Seed: o.seed(), Warmup: warmup, Measure: measure,
				Faults: faultPlan(rate, o.seed()),
			}
			specs = append(specs, func() any { return countnet.RunExperiment(cfg) })
		}
	}
	render := func(results []any) []Table {
		t := Table{
			ID:    "EXT-FAULT",
			Title: "Counting network under message faults, requests/1000 cycles",
			Note: "drop=R also duplicates at R/2 and jitters deliveries up to 40 cycles; " +
				"retransmissions keep every mechanism correct (invariants column) at the " +
				"cost of throughput",
			Headers: faultHeaders(),
		}
		i := 0
		for _, s := range schemes {
			row := []string{s.Name()}
			var worst countnet.Result
			for range faultRates {
				r := results[i].(countnet.Result)
				i++
				row = append(row, fmt.Sprintf("%.2f", r.Throughput))
				worst = r
			}
			t.Rows = append(t.Rows, append(row, faultCells(worst.Fault, worst.InvariantErr)...))
		}
		return []Table{t}
	}
	return experiment{specs: specs, render: render}
}

// btreeFaultExp is the same sweep on the B-tree workload.
func btreeFaultExp(o Options) experiment {
	warmup, measure := o.windows()
	schemes := faultSchemes()
	var specs []RunSpec
	for _, s := range schemes {
		for _, rate := range faultRates {
			cfg := btree.Config{
				Scheme: s, Think: 0,
				Seed: o.seed(), Warmup: warmup, Measure: measure,
				Faults: faultPlan(rate, o.seed()),
			}
			specs = append(specs, func() any { return btree.RunExperiment(cfg) })
		}
	}
	render := func(results []any) []Table {
		t := Table{
			ID:    "EXT-FAULT-BTREE",
			Title: "B-tree under message faults, ops/1000 cycles (0 think time)",
			Note: "invariants = structural B-link checks plus exact key-set integrity " +
				"against the host-tracked successful inserts",
			Headers: faultHeaders(),
		}
		i := 0
		for _, s := range schemes {
			row := []string{s.Name()}
			var worst btree.Result
			for range faultRates {
				r := results[i].(btree.Result)
				i++
				row = append(row, fmt.Sprintf("%.3f", r.Throughput))
				worst = r
			}
			t.Rows = append(t.Rows, append(row, faultCells(worst.Fault, worst.InvariantErr)...))
		}
		return []Table{t}
	}
	return experiment{specs: specs, render: render}
}

func faultHeaders() []string {
	h := []string{"scheme"}
	for _, rate := range faultRates {
		h = append(h, fmt.Sprintf("drop=%g%%", rate*100))
	}
	return append(h, "retx@5%", "invariants")
}

// faultCells renders the highest-rate point's recovery work and
// invariant verdict.
func faultCells(c *fault.Counters, invErr string) []string {
	retx := "-"
	if c != nil {
		retx = fmt.Sprintf("%d", c.Retransmits)
	}
	inv := "ok"
	if invErr != "" {
		inv = "VIOLATED: " + invErr
	}
	return []string{retx, inv}
}
