package harness

import (
	"fmt"

	"compmig/internal/apps/kv"
	"compmig/internal/fault"
	"compmig/internal/load"
)

// recoveryPoint is one column of the ext-recovery sweep: how many
// storage processors get wiped, and the checkpoint interval in force
// (0 = cost.DefaultCkptInterval).
type recoveryPoint struct {
	wipes int
	ckpt  uint64
	label string
}

// recoveryPoints sweeps wipe frequency at the default checkpoint
// interval, plus the heaviest crash plan under frequent checkpoints
// (shorter WAL suffixes to replay, more fold work during the run).
func recoveryPoints() []recoveryPoint {
	return []recoveryPoint{
		{0, 0, "wipes=0"},
		{1, 0, "wipes=1"},
		{2, 0, "wipes=2"},
		{2, 10000, "wipes=2,ckpt=10k"},
	}
}

// recoveryPlan builds the fault plan for one sweep point. Every window
// is a wipe: the processor's volatile state is discarded at the window
// start and rebuilt from checkpoint + WAL suffix. nil when the point
// has neither wipes nor a checkpoint override (the run is still durable
// — the experiment forces the WAL on at every point).
func recoveryPlan(p recoveryPoint) *fault.Spec {
	var ws []fault.Window
	if p.wipes >= 1 {
		ws = append(ws, fault.Window{Proc: 2, Start: 60000, Dur: 8000, Wipe: true})
	}
	if p.wipes >= 2 {
		ws = append(ws, fault.Window{Proc: 5, Start: 120000, Dur: 8000, Wipe: true})
	}
	if len(ws) == 0 && p.ckpt == 0 {
		return nil
	}
	return &fault.Spec{Windows: ws, Ckpt: p.ckpt}
}

// recoveryLoad is a steady write-heavy open-loop workload: no bursts or
// hotspot motion, so throughput differences across the sweep are the
// durability and recovery costs, not workload drift. The makespan
// (ops x period) comfortably covers both wipe windows.
func recoveryLoad(quick bool) *load.Spec {
	ops := uint64(4000)
	if quick {
		ops = 1000
	}
	return &load.Spec{
		Keys: 256, Ops: ops, Period: 220, Theta: 0.9,
		ReadPct: 45, WritePct: 50, ScanPct: 5, ScanLen: 8,
	}
}

// recoveryExp sweeps mechanism x wipe frequency x checkpoint interval
// on the KV store with the WAL on at every point. The durability
// guarantee — no acknowledged write lost across a wipe — is asserted at
// every point; the table reports how much throughput each mechanism
// pays and the recovery work at the heaviest default-interval plan.
func recoveryExp(o Options) experiment {
	schemes := faultSchemes()
	points := recoveryPoints()
	var specs []RunSpec
	for _, s := range schemes {
		for _, p := range points {
			cfg := kv.Config{
				Scheme:  s,
				Durable: true,
				Load:    recoveryLoad(o.Quick),
				Faults:  recoveryPlan(p),
				Seed:    o.seed(),
			}
			specs = append(specs, func() any { return kv.RunExperiment(cfg) })
		}
	}
	render := func(results []any) []Table {
		t := Table{
			ID:    "EXT-RECOVERY",
			Title: "KV durability under loss-inducing crashes, requests/1000 cycles",
			Note: "every point runs with the per-processor WAL on; a wipe discards a storage " +
				"processor's volatile state mid-run and recovery replays checkpoint + WAL " +
				"suffix in simulated time; the invariant column asserts no acked write was " +
				"lost; CM's appends stay home-local (§2.5) so it degrades least, while RPC " +
				"serializes handler-side appends behind the recovering processor's replay",
			Headers: []string{"scheme"},
		}
		for _, p := range points {
			t.Headers = append(t.Headers, p.label)
		}
		t.Headers = append(t.Headers, "replays@w2", "rec-cycles@w2", "invariants")
		i := 0
		for range schemes {
			r0 := results[i].(kv.Result)
			row := []string{r0.Scheme}
			var atW2 kv.Result
			inv := "ok"
			for _, p := range points {
				r := results[i].(kv.Result)
				i++
				row = append(row, fmt.Sprintf("%.3f", r.Throughput))
				if r.Recovery == nil {
					panic("harness: ext-recovery point ran without the durability store")
				}
				if uint64(p.wipes) != r.Recovery.Wipes {
					panic(fmt.Sprintf("harness: ext-recovery %s/%s recovered %d wipes, want %d",
						r.Scheme, p.label, r.Recovery.Wipes, p.wipes))
				}
				if p.wipes == 2 && p.ckpt == 0 {
					atW2 = r
				}
				if r.InvariantErr != "" && inv == "ok" {
					inv = "VIOLATED: " + r.InvariantErr
				}
			}
			row = append(row,
				fmt.Sprintf("%d", atW2.Recovery.Replays),
				fmt.Sprintf("%d", atW2.Recovery.RecoveryCycles),
				inv)
			t.Rows = append(t.Rows, row)
		}
		return []Table{t}
	}
	return experiment{specs: specs, render: render}
}
