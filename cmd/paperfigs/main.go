// Command paperfigs regenerates the tables and figures of the paper's
// evaluation section on the simulated machine.
//
// Usage:
//
//	paperfigs [-exp all|fig1|fig2|fig3|table1|table2|table3|table4|table5|smallnode|ext-objmig|ext-policy|ext-fault|ext-kv|ext-recovery|ext-ablation|scale]
//	          [-quick] [-seed N] [-format text|md] [-workers N] [-shards N] [-bench-json out.json]
//	          [-faults SPEC] [-profile] [-cpuprofile out.pb] [-memprofile out.pb]
//
// Independent simulation jobs run on a pool of -workers host goroutines
// (default: one per CPU); the rendered tables are byte-identical for any
// worker count. -bench-json runs each selected experiment at workers=1
// and at -workers, verifies the outputs match, and writes a
// profile.BenchReport to the given file: wall clock, allocations, and
// every profile counter the run moved, by name (-exp all measures every
// sweep, ext-fault, ext-kv, ext-recovery, ext-ablation and scale included).
//
// -shards N runs parallel-eligible simulations (the countnet CM/RPC
// points) on N sharded event engines synchronized by conservative
// lookahead; rendered tables are identical for any N >= 1 (and differ
// from the N=0 serial engine's). With -bench-json, a nonzero -shards
// switches the report to a shards=1 vs shards=N comparison instead of
// the worker sweep; clustered runs carry the shard.* counters.
//
// -profile prints per-subsystem host-time counters (shared-memory fast
// and slow paths, network sends, event-heap pushes) to stderr after the
// run and adds host_ns to -bench-json entries; -cpuprofile/-memprofile
// write standard pprof profiles.
//
// -faults applies a deterministic fault plan (internal/fault grammar,
// e.g. drop=0.01,dup=0.005,delay=0:40,seed=7) to every config-driven
// experiment; the ext-fault experiment runs its own rate sweep and
// ignores the flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"compmig/internal/fault"
	"compmig/internal/harness"
	"compmig/internal/profile"
	"compmig/internal/stats"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(harness.ExperimentIDs(), ", ")+", all")
	quick := flag.Bool("quick", false, "short measurement windows (smoke run)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	format := flag.String("format", "text", "output format: text or md")
	workers := flag.Int("workers", 0, "worker goroutines for independent simulation jobs (0 = one per CPU, 1 = serial)")
	shards := flag.Int("shards", 0, "sharded event engines per parallel-eligible simulation (0 = serial engine)")
	benchJSON := flag.String("bench-json", "", "write wall-clock, allocation and profile-counter stats per experiment to this JSON file")
	prof := flag.Bool("profile", false, "print per-subsystem host-time counters to stderr after the run")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file")
	faultsSpec := flag.String("faults", "", "fault plan applied to config-driven experiments, e.g. drop=0.01,dup=0.005,delay=0:40 (empty = no faults)")
	flag.Parse()

	if *format != "text" && *format != "md" {
		fmt.Fprintf(os.Stderr, "paperfigs: -format wants text or md, got %q\n", *format)
		os.Exit(2)
	}
	faults, err := fault.ParseSpec(*faultsSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(2)
	}

	if *prof {
		profile.Enable(true)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
		if *prof {
			fmt.Fprint(os.Stderr, profile.Report())
		}
	}()

	o := harness.Options{Quick: *quick, Seed: *seed, Workers: *workers, Faults: faults, Shards: *shards}

	if *benchJSON != "" {
		if err := runBench(*benchJSON, *exp, o); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	tables, err := harness.Run(*exp, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		switch *format {
		case "md":
			fmt.Print(t.Markdown())
		default:
			fmt.Print(t.String())
		}
	}
}

// runBench measures each selected experiment at workers=1 and at the
// requested worker count, verifies the rendered tables are identical,
// and writes the report to path. With Options.Shards set, the
// comparison axis is the sharded engine instead: each experiment runs
// at shards=1 and at the requested shard count (same workers), again
// verified byte-identical.
func runBench(path, exp string, o harness.Options) error {
	ids := []string{exp}
	if exp == "all" {
		// One id per independent sweep (fig3 shares fig2's, table2/4
		// share table1/3's), plus the full suite.
		ids = []string{"fig1", "fig2", "table1", "table3", "table5", "smallnode", "ext-objmig", "ext-policy",
			"ext-fault", "ext-kv", "ext-recovery", "ext-ablation", "scale", "all"}
	}
	base, variant := o, o
	axis := "workers"
	if o.Shards > 0 {
		axis = "shards"
		base.Shards = 1
	} else {
		base.Workers = 1
	}

	report := profile.BenchReport{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Quick:      o.Quick,
		Seed:       serialSeed(o.Seed),
	}
	for _, id := range ids {
		se, sOut, err := measure(id, base)
		if err != nil {
			return err
		}
		report.Experiments = append(report.Experiments, se)
		pe, pOut, err := measure(id, variant)
		if err != nil {
			return err
		}
		if pe.Workers != se.Workers || pe.Shards != se.Shards {
			report.Experiments = append(report.Experiments, pe)
		}
		if sOut != pOut {
			return fmt.Errorf("paperfigs: experiment %q rendered differently at %s=%d vs %s=%d",
				id, axis, pick(axis, se), axis, pick(axis, pe))
		}
		fmt.Fprintf(os.Stderr, "%-12s %s=%-2d %8.1f ms   %s=%-2d %8.1f ms\n",
			id, axis, pick(axis, se), se.WallMS, axis, pick(axis, pe), pe.WallMS)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func pick(axis string, e profile.BenchEntry) int {
	if axis == "shards" {
		return e.Shards
	}
	return e.Workers
}

func serialSeed(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// measure runs one experiment and samples wall clock, allocation, and
// profile-section deltas around it. Every subsystem flushes its counts
// into its section before the run returns (the mem systems on Release,
// which every experiment defers; the engines and clusters when their
// Run returns), so snapshotting the sections brackets the run exactly.
func measure(id string, o harness.Options) (profile.BenchEntry, string, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pBefore := profile.Snapshot()
	start := time.Now()
	tables, err := harness.Run(id, o)
	wall := time.Since(start)
	pAfter := profile.Snapshot()
	runtime.ReadMemStats(&after)
	if err != nil {
		return profile.BenchEntry{}, "", err
	}
	var b strings.Builder
	lat := &stats.Histogram{}
	for _, t := range tables {
		b.WriteString(t.String())
		if t.Latency != nil {
			lat.AddFrom(t.Latency)
		}
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := profile.BenchEntry{
		Experiment: id,
		Workers:    workers,
		Shards:     o.Shards,
		WallMS:     float64(wall.Microseconds()) / 1000,
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Tables:     len(tables),
	}
	e.AddDeltas(pBefore, pAfter)
	e.SetCounter("latency.p50", lat.Quantile(0.50))
	e.SetCounter("latency.p95", lat.Quantile(0.95))
	e.SetCounter("latency.p99", lat.Quantile(0.99))
	return e, b.String(), nil
}
