package harness

import (
	"fmt"

	"compmig/internal/apps/kv"
	"compmig/internal/cost"
	"compmig/internal/load"
	"compmig/internal/stats"
)

// kvSkews lists the two Zipfian thetas the KV extension sweeps: uniform
// popularity and YCSB's heavily skewed 0.99.
func kvSkews() []float64 { return []float64{0, 0.99} }

// kvHeteros lists the processor-speed profiles: a uniform machine, a
// bimodal one whose storage tier (the low-numbered processors, where the
// partitions live) runs 4x slower, and a gradient machine spanning 1-4x.
func kvHeteros() []*cost.Hetero {
	return []*cost.Hetero{
		nil,
		{Kind: "bimodal", Factor: 4, Frac: 0.5},
		{Kind: "gradient", Min: 1, Max: 4},
	}
}

func heteroName(h *cost.Hetero) string {
	if s := h.String(); s != "" {
		return s
	}
	return "uniform"
}

// kvWorkload is the open-loop workload at one skew: a moving hotspot
// rotates a quarter of the key space every 60k cycles and a flash crowd
// triples the arrival rate for 30k cycles, so the offered load is
// time-varying along both the key and time axes.
func kvWorkload(theta float64, quick bool) *load.Spec {
	ops := uint64(4000)
	if quick {
		ops = 800
	}
	return &load.Spec{
		Keys: 512, Ops: ops, Period: 220, Theta: theta,
		ReadPct: 70, WritePct: 25, ScanPct: 5, ScanLen: 8,
		HotShift: 0.25, HotPeriod: 60000,
		BurstMult: 3, BurstStart: 40000, BurstLen: 30000,
	}
}

// kvExp decomposes the KV/session-store extension: every policy at every
// (skew, heterogeneity) point of the sweep. The headline claim is a
// mechanism crossover — the best static mechanism under a slow storage
// tier differs from the uniform-machine winner (shared memory does its
// work on the fast requester processor; RPC and migration execute on the
// slow storage processors) — and the adaptive policies track the winner
// on both sides of the crossover without being told the machine shape.
func kvExp(o Options) experiment {
	pols := policySpecs()
	skews := kvSkews()
	heteros := kvHeteros()
	var specs []RunSpec
	for _, h := range heteros {
		for _, p := range pols {
			for _, theta := range skews {
				cfg := kv.Config{
					Policy: p,
					// 200 cycles per record access makes the per-op compute
					// dominate the mechanism overheads, so where that compute
					// executes — storage tier vs requester — decides the
					// winner on a non-uniform machine.
					AccessCycles: 200,
					Load:         kvWorkload(theta, o.Quick),
					Hetero:       h,
					Faults:       o.Faults,
					Seed:         o.seed(),
				}
				specs = append(specs, func() any { return kv.RunExperiment(cfg) })
			}
		}
	}
	render := func(results []any) []Table {
		var tabs []Table
		i := 0
		for _, h := range heteros {
			t := Table{
				ID:    "EXT-KV",
				Title: fmt.Sprintf("KV store under open-loop load, hetero=%s", heteroName(h)),
				Note: "extension beyond the paper: open-loop arrivals with a moving hotspot and a " +
					"flash crowd; thr is requests/1000 cycles, p99 the tail latency in cycles; " +
					"decisions column is the choice mix at zipf=0.99",
				Headers: []string{"policy", "thr zipf=0", "p99 zipf=0", "thr zipf=0.99", "p99 zipf=0.99", "decisions"},
			}
			hist := &stats.Histogram{}
			for _, p := range pols {
				row := []string{p}
				mix := "-"
				for range skews {
					r := results[i].(kv.Result)
					i++
					if r.InvariantErr != "" {
						panic(fmt.Sprintf("harness: ext-kv %s/%s invariant violated: %s", heteroName(h), p, r.InvariantErr))
					}
					row = append(row, fmt.Sprintf("%.3f", r.Throughput), fmt.Sprintf("%d", r.P99))
					mix = decisionMix(r.Decisions)
					hist.AddFrom(r.Latency)
				}
				row = append(row, mix)
				t.Rows = append(t.Rows, row)
			}
			t.Latency = hist
			tabs = append(tabs, t)
		}
		return tabs
	}
	return experiment{specs: specs, render: render}
}
