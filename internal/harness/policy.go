package harness

import (
	"fmt"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
	"compmig/internal/core"
)

// policySpecs lists the selectors the adaptive-policy extension compares:
// the three static pins (run through the policy engine, so the identity
// contract is exercised on every sweep) against the two adaptive
// policies. Object migration is omitted — it is not an adaptive
// candidate (see internal/policy).
func policySpecs() []string {
	return []string{"static:rpc", "static:cm", "static:sm", "costmodel", "bandit"}
}

// decisionMix renders a policy run's per-mechanism decision counts as a
// compact "rpc:12 cm:3 sm:985" cell (mechanisms with zero decisions are
// omitted).
func decisionMix(d [4]uint64) string {
	out := ""
	for _, m := range []core.Mechanism{core.RPC, core.Migrate, core.SharedMem, core.ObjMigrate} {
		if d[m] == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", m.String(), d[m])
	}
	if out == "" {
		return "-"
	}
	return out
}

// policyExp decomposes the adaptive-policy extension on the counting
// network: every policy across the Figure 2 sweep axes (think time x
// thread count). The headline claim is that costmodel tracks the best
// static mechanism at every point without knowing the workload, while
// the statics each lose somewhere.
func policyExp(o Options) experiment {
	warmup, measure := o.windows()
	threads := threadCounts(o.Quick)
	thinks := []uint64{0, 10000}
	pols := policySpecs()
	var specs []RunSpec
	for _, think := range thinks {
		for _, p := range pols {
			for _, n := range threads {
				cfg := countnet.Config{
					Threads: n, Think: think, Policy: p,
					Seed: o.seed(), Warmup: warmup, Measure: measure,
					Faults: o.Faults,
				}
				specs = append(specs, func() any { return countnet.RunExperiment(cfg) })
			}
		}
	}
	render := func(results []any) []Table {
		var tabs []Table
		i := 0
		for _, think := range thinks {
			t := Table{
				ID:    "EXT-POLICY",
				Title: fmt.Sprintf("Counting network under online mechanism selection, requests/1000 cycles (think=%d)", think),
				Note: "extension beyond the paper (§6's open direction): costmodel picks per " +
					"operation from live statistics and tracks the best static mechanism; " +
					"decisions column is the per-mechanism choice mix at the largest thread count",
			}
			t.Headers = []string{"policy"}
			for _, n := range threads {
				t.Headers = append(t.Headers, fmt.Sprintf("%d", n))
			}
			t.Headers = append(t.Headers, "decisions")
			for _, p := range pols {
				row := []string{p}
				mix := "-"
				for range threads {
					r := results[i].(countnet.Result)
					i++
					row = append(row, fmt.Sprintf("%.2f", r.Throughput))
					mix = decisionMix(r.Decisions)
				}
				row = append(row, mix)
				t.Rows = append(t.Rows, row)
			}
			tabs = append(tabs, t)
		}
		return tabs
	}
	return experiment{specs: specs, render: render}
}

// btreePolicyExp decomposes the same extension on the B-tree, at the
// paper's two contention levels.
func btreePolicyExp(o Options) experiment {
	warmup, measure := o.windows()
	thinks := []uint64{0, 10000}
	pols := policySpecs()
	var specs []RunSpec
	for _, p := range pols {
		for _, think := range thinks {
			cfg := btree.Config{
				Think: think, Policy: p, Seed: o.seed(),
				Warmup: warmup, Measure: measure,
				Faults: o.Faults,
			}
			specs = append(specs, func() any { return btree.RunExperiment(cfg) })
		}
	}
	render := func(results []any) []Table {
		t := Table{
			ID:    "EXT-POLICY-BTREE",
			Title: "B-tree under online mechanism selection, ops/1000 cycles",
			Note: "extension beyond the paper: the lookup and insert call sites decide " +
				"independently; decisions column is the combined choice mix at think=0",
			Headers: []string{"policy", "think=0", "think=10000", "decisions"},
		}
		i := 0
		for _, p := range pols {
			row := []string{p}
			mix := "-"
			for ti := range thinks {
				r := results[i].(btree.Result)
				i++
				row = append(row, fmt.Sprintf("%.3f", r.Throughput))
				if ti == 0 {
					mix = decisionMix(r.Decisions)
				}
			}
			row = append(row, mix)
			t.Rows = append(t.Rows, row)
		}
		return []Table{t}
	}
	return experiment{specs: specs, render: render}
}
