// Command countnet runs one counting-network experiment (the paper's
// first application) and prints the measured point.
//
// Example:
//
//	countnet -threads 64 -think 0 -scheme cm+hw
//	countnet -threads 64 -policy costmodel -policy-stats stats.json
package main

import (
	"flag"
	"fmt"

	"compmig/internal/apps/countnet"
	"compmig/internal/harness"
	"compmig/internal/sim"
)

func main() {
	mf := harness.NewMachineFlags("countnet", "scheme: rpc|cm|sm|om with +hw (e.g. cm+hw)")
	width := flag.Int("width", 8, "counting network width (power of two >= 2)")
	threads := flag.Int("threads", 8, "requesting threads, one per processor")
	think := flag.Uint64("think", 0, "cycles between requests")
	warmup := flag.Uint64("warmup", 20000, "warmup cycles before measuring")
	measure := flag.Uint64("measure", 200000, "measurement window in cycles")
	trace := flag.Int("trace", 0, "dump the last N simulation events to stderr")
	shards := flag.Int("shards", 0, "sharded event engines (0 = serial; CM/RPC schemes only, output identical for any N >= 1)")
	flag.Parse()

	if *width <= 0 || *threads <= 0 {
		mf.Fail(fmt.Sprintf("-width and -threads must be positive (got %d, %d)", *width, *threads))
	}
	if *width < 2 || *width&(*width-1) != 0 {
		mf.Fail(fmt.Sprintf("-width must be a power of two >= 2 (got %d)", *width))
	}
	mf.Parse()
	cfg := countnet.Config{
		Width: *width, Threads: *threads, Think: *think, Scheme: mf.Scheme,
		Seed: mf.Seed, Warmup: sim.Time(*warmup), Measure: sim.Time(*measure),
		TraceCap: *trace, Policy: mf.Policy, Faults: mf.Faults,
		Durable: mf.Durable, Shards: *shards,
	}
	mf.CheckProcs(cfg.Procs())
	r := countnet.RunExperiment(cfg)
	mf.WriteOutputs(&r.Result)
	fmt.Printf("scheme            %s\n", r.Scheme)
	harness.PrintPolicy(&r.Result)
	fmt.Printf("threads           %d\n", r.Threads)
	fmt.Printf("think time        %d cycles\n", r.Think)
	fmt.Printf("throughput        %.3f requests/1000 cycles\n", r.Throughput)
	fmt.Printf("bandwidth         %.3f words/10 cycles\n", r.Bandwidth)
	fmt.Printf("requests          %d\n", r.Ops)
	fmt.Printf("mean latency      %.0f cycles\n", r.MeanLatency)
	fmt.Printf("p95 latency       <= %d cycles\n", r.P95Latency)
	fmt.Printf("entry-stage util  %.1f%%\n", r.EntryUtilization*100)
	fmt.Printf("messages          %d\n", r.Messages)
	fmt.Printf("words/request     %.1f\n", r.WordsPerOp)
	if r.HitRate > 0 {
		fmt.Printf("cache hit rate    %.1f%%\n", r.HitRate*100)
	}
	mf.PrintOutcome(&r.Result, false)
}
