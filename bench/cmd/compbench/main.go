// Command compbench runs one benchmark workload in this process and
// prints its result as the last line of standard output:
//
//	compbench -workload mp-closed -seed 1 -seconds 10 -trace 0
//
// The line is one JSON object with the keys correct, attempted, failed
// and metrics; metrics maps each metric name to {value, unit}. With
// -trace 0 it holds the end-to-end metrics, with -trace 1 the per-layer
// metrics of the traced phase. Failed runs are listed on standard
// error. The exit status is 0 when every run passed its checks, 1 when
// one failed or the benchmark could not run, and 2 for bad flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"compmig/bench"
)

func main() {
	workload := flag.String("workload", "", "workload: mp-closed, sm-closed, kv-open or faults-durable")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds the timed phase repeats for (at least one rep runs)")
	trace := flag.Int("trace", 0, "1 adds the traced phase and prints the per-layer metrics")
	flag.Parse()
	w, err := bench.WorkloadByName(*workload)
	if err != nil || flag.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "compbench: %v\n", err)
		}
		flag.Usage()
		os.Exit(2)
	}

	// The engine is single-threaded; one P keeps goroutine handoffs and
	// the garbage collector off a second, shared core.
	runtime.GOMAXPROCS(1)
	rep, err := bench.Run(w, bench.Options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "compbench: %v\n", err)
		os.Exit(1)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "compbench: failed run %s\n", f)
	}
	metrics := rep.EndToEnd
	if *trace == 1 {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]bench.Metric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "compbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		os.Exit(1)
	}
}
