// Command kv runs one open-loop distributed KV/session-store experiment
// and prints the measured row: throughput, tail latency, the mechanism
// decision mix, and the invariant verdict.
//
// The workload is open-loop (-workload, internal/load grammar): arrivals
// do not wait for completions, so a slow configuration accumulates
// queueing delay instead of throttling the offered load. The machine may
// be heterogeneous (-hetero, internal/cost grammar): the partitions live
// on the low-numbered processors, so bimodal slowness lands on the
// storage tier.
//
// Examples:
//
//	kv -workload keys=512,ops=4000,period=220,zipf=0.99,mix=70:25:5
//	kv -hetero gradient:1:4 -policy costmodel
//	kv -scheme sm -hetero bimodal:4:0.5 -faults drop=0.01,seed=7
package main

import (
	"flag"
	"fmt"

	"compmig/internal/apps/kv"
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/harness"
	"compmig/internal/load"
	"compmig/internal/policy"
)

func main() {
	mf := harness.NewMachineFlags("kv", "scheme: rpc|cm|sm (object migration is not supported by the store)")
	workloadSpec := flag.String("workload", "", "open-loop workload, e.g. keys=512,ops=4000,period=220,zipf=0.99,mix=70:25:5,hot=0.25:60000,burst=3:40000:30000 (empty = defaults)")
	heteroSpec := flag.String("hetero", "", "processor speed profile: uniform, bimodal:FACTOR:FRAC, or gradient:MIN:MAX (empty = uniform)")
	store := flag.Int("store", 8, "storage processors (= partitions)")
	front := flag.Int("front", 4, "frontend processors receiving arrivals")
	touches := flag.Int("touches", 3, "record accesses per point operation")
	access := flag.Uint64("access", 40, "user-code cycles per record access")
	frontWork := flag.Uint64("frontwork", 50, "frontend parse/dispatch cycles per request")
	flag.Parse()

	if *store <= 0 || *front <= 0 || *touches <= 0 || *access == 0 {
		mf.Fail(fmt.Sprintf("-store, -front, -touches, and -access must be positive (got %d, %d, %d, %d)",
			*store, *front, *touches, *access))
	}
	spec, err := load.ParseSpec(*workloadSpec)
	if err != nil {
		mf.Fail(err)
	}
	hetero, err := cost.ParseHetero(*heteroSpec)
	if err != nil {
		mf.Fail(err)
	}
	mf.Parse()
	if mf.Scheme.Mechanism == core.ObjMigrate {
		mf.Fail("the store does not support object migration (-scheme om); use rpc, cm, or sm")
	}
	if mech, ok := policy.StaticMechanism(mf.Policy); ok && mech == core.ObjMigrate {
		mf.Fail("the store does not support object migration (-policy static:om); use static:rpc, static:cm, or static:sm")
	}
	cfg := kv.Config{
		StoreProcs: *store, FrontProcs: *front, Touches: *touches,
		AccessCycles: *access, FrontWork: *frontWork,
		Scheme: mf.Scheme, Policy: mf.Policy,
		Load: spec, Hetero: hetero, Faults: mf.Faults,
		Durable: mf.Durable, Seed: mf.Seed,
	}
	mf.CheckProcs(cfg.Procs())
	r := kv.RunExperiment(cfg)
	mf.WriteOutputs(&r.Result)

	fmt.Printf("scheme            %s\n", r.Scheme)
	harness.PrintPolicy(&r.Result)
	if spec.String() != "" {
		fmt.Printf("workload          %s\n", spec)
	}
	if hetero.Enabled() {
		fmt.Printf("hetero            %s\n", hetero)
	}
	fmt.Printf("operations        %d (get:%d put:%d scan:%d)\n", r.Ops, r.Gets, r.Puts, r.Scans)
	fmt.Printf("makespan          %d cycles\n", r.Makespan)
	fmt.Printf("throughput        %.3f requests/1000 cycles\n", r.Throughput)
	fmt.Printf("mean latency      %.0f cycles\n", r.MeanLatency)
	fmt.Printf("p50 latency       <= %d cycles\n", r.P50)
	fmt.Printf("p95 latency       <= %d cycles\n", r.P95)
	fmt.Printf("p99 latency       <= %d cycles\n", r.P99)
	fmt.Printf("words/op          %.1f\n", r.WordsPerOp)
	if r.HitRate > 0 {
		fmt.Printf("cache hit rate    %.1f%%\n", r.HitRate*100)
	}
	mf.PrintOutcome(&r.Result, true)
}
