// Command btree runs one distributed B-tree experiment (the paper's
// second application) and prints the measured row.
//
// Example:
//
//	btree -threads 16 -think 0 -scheme cm+repl+hw -fanout 100
//	btree -threads 16 -policy costmodel -policy-stats stats.json
package main

import (
	"flag"
	"fmt"

	"compmig/internal/apps/btree"
	"compmig/internal/harness"
	"compmig/internal/sim"
)

func main() {
	mf := harness.NewMachineFlags("btree", "scheme: rpc|cm|sm|om with +hw/+repl (e.g. cm+repl+hw)")
	fanout := flag.Int("fanout", 100, "maximum keys per node")
	keys := flag.Int("keys", 10000, "initial keys")
	procs := flag.Int("nodeprocs", 48, "processors holding tree nodes")
	threads := flag.Int("threads", 16, "requesting threads, one per processor")
	think := flag.Uint64("think", 0, "cycles between requests")
	lookup := flag.Float64("lookups", 0.5, "fraction of operations that are lookups")
	warmup := flag.Uint64("warmup", 20000, "warmup cycles before measuring")
	measure := flag.Uint64("measure", 200000, "measurement window in cycles")
	trace := flag.Int("trace", 0, "dump the last N simulation events to stderr")
	flag.Parse()

	if *fanout <= 0 || *keys <= 0 || *procs <= 0 || *threads <= 0 {
		mf.Fail(fmt.Sprintf("-fanout, -keys, -nodeprocs, and -threads must be positive (got %d, %d, %d, %d)",
			*fanout, *keys, *procs, *threads))
	}
	if *lookup < 0 || *lookup > 1 {
		mf.Fail(fmt.Sprintf("-lookups wants a fraction in [0,1], got %g", *lookup))
	}
	mf.Parse()
	p := btree.DefaultParams()
	p.Fanout = *fanout
	p.NodeProcs = *procs
	cfg := btree.Config{
		Params: p, InitialKeys: *keys, Threads: *threads, Think: *think,
		LookupFrac: *lookup, Scheme: mf.Scheme, Seed: mf.Seed,
		Warmup: sim.Time(*warmup), Measure: sim.Time(*measure),
		TraceCap: *trace, Policy: mf.Policy, Faults: mf.Faults,
		Durable: mf.Durable,
	}
	mf.CheckProcs(cfg.Procs())
	r := btree.RunExperiment(cfg)
	mf.WriteOutputs(&r.Result, r.Trace)
	fmt.Printf("scheme            %s\n", r.Scheme)
	harness.PrintPolicy(&r.Result, r.Decisions)
	fmt.Printf("think time        %d cycles\n", r.Think)
	fmt.Printf("throughput        %.3f ops/1000 cycles\n", r.Throughput)
	fmt.Printf("bandwidth         %.3f words/10 cycles\n", r.Bandwidth)
	fmt.Printf("operations        %d\n", r.Ops)
	fmt.Printf("mean latency      %.0f cycles\n", r.MeanLatency)
	fmt.Printf("p95 latency       <= %d cycles\n", r.P95Latency)
	fmt.Printf("root proc util    %.1f%%\n", r.RootUtilization*100)
	fmt.Printf("words/op          %.1f\n", r.WordsPerOp)
	fmt.Printf("tree height       %d\n", r.Height)
	fmt.Printf("root children     %d\n", r.RootChildren)
	if r.HitRate > 0 {
		fmt.Printf("cache hit rate    %.1f%%\n", r.HitRate*100)
	}
	mf.PrintOutcome(&r.Result, false)
}
