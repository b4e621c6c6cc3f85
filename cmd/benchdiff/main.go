// Command benchdiff compares two benchmark reports written by
// paperfigs -bench-json and prints per-experiment wall-clock and
// allocation deltas.
//
// Usage:
//
//	benchdiff [-threshold PCT] old.json new.json
//
// Entries are matched by (experiment, workers, shards). With -threshold
// set, benchdiff exits 1 if any matched experiment's wall clock
// regressed by more than PCT percent — suitable as a CI gate.
// Wall-clock deltas on sub-millisecond entries are noise, so the gate
// only considers entries whose baseline is at least 50 ms.
//
// An entry with counters gets a second line listing them by name: the
// profile sections the run moved and, for experiments that measure
// per-request latency, latency.p50/p95/p99. Counters are simulation
// results, so each one that differs from the old report is marked
// "(was N)": a changed count means the simulated behavior changed.
// Reports written before counters existed load too; their entries
// simply have none.
//
// The allocation delta of an entry run with more than one worker is
// marked approximate ("~"). Simulated threads run on pooled host
// coroutines (sim's carriers), and concurrent harness workers that
// find the shared idle-carrier pool empty at the same moment each make
// a new one, so how many carriers such a run creates, at about 14 heap
// objects apiece, depends on host scheduling: ext-kv at workers=4 reads
// 650k to 700k allocations from one build, while its workers=1 count
// is exact. Compare allocations at workers=1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"compmig/internal/profile"
)

// gateFloorMS is the baseline wall clock below which the threshold gate
// ignores an entry: timing jitter on tiny runs dwarfs any real change.
const gateFloorMS = 50

func main() {
	threshold := flag.Float64("threshold", 0, "exit 1 if any wall clock regresses by more than this percent (0 = report only)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold PCT] old.json new.json")
		os.Exit(2)
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if oldRep.Quick != newRep.Quick {
		fmt.Fprintf(os.Stderr, "benchdiff: warning: comparing quick=%v against quick=%v\n",
			oldRep.Quick, newRep.Quick)
	}

	type key struct {
		exp     string
		workers int
		shards  int
	}
	oldBy := make(map[key]profile.BenchEntry, len(oldRep.Experiments))
	for _, e := range oldRep.Experiments {
		oldBy[key{e.Experiment, e.Workers, e.Shards}] = e
	}

	fmt.Printf("%-12s %3s %3s  %10s %10s %8s  %12s %8s\n",
		"experiment", "w", "s", "old ms", "new ms", "wall", "new allocs", "allocs")
	regressed := false
	matched := 0
	for _, n := range newRep.Experiments {
		k := key{n.Experiment, n.Workers, n.Shards}
		o, ok := oldBy[k]
		if !ok {
			fmt.Printf("%-12s %3d %3d  %10s %10.1f %8s  %12d %8s\n",
				n.Experiment, n.Workers, n.Shards, "-", n.WallMS, "new", n.Allocs, "new")
			printCounters(profile.BenchEntry{}, n)
			continue
		}
		matched++
		delete(oldBy, k)
		wallPct := pctDelta(o.WallMS, n.WallMS)
		allocs := fmt.Sprintf("%+.1f%%", pctDelta(float64(o.Allocs), float64(n.Allocs)))
		if n.Workers > 1 {
			allocs = "~" + allocs
		}
		fmt.Printf("%-12s %3d %3d  %10.1f %10.1f %+7.1f%%  %12d %8s\n",
			n.Experiment, n.Workers, n.Shards, o.WallMS, n.WallMS, wallPct, n.Allocs, allocs)
		printCounters(o, n)
		if *threshold > 0 && o.WallMS >= gateFloorMS && wallPct > *threshold {
			fmt.Fprintf(os.Stderr, "benchdiff: %s workers=%d shards=%d wall clock regressed %.1f%% (limit %.1f%%)\n",
				n.Experiment, n.Workers, n.Shards, wallPct, *threshold)
			regressed = true
		}
	}
	for _, o := range oldRep.Experiments {
		if _, ok := oldBy[key{o.Experiment, o.Workers, o.Shards}]; ok {
			fmt.Printf("%-12s %3d %3d  entry missing from new report\n", o.Experiment, o.Workers, o.Shards)
		}
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no experiments in common")
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

// printCounters renders an entry's counters on one line, marking each
// one that differs from the old entry (when the old entry has counters
// at all).
func printCounters(o, n profile.BenchEntry) {
	var line []string
	for _, k := range sortedKeys(n.Counters, o.Counters) {
		c := fmt.Sprintf("%s=%d", k, n.Counters[k])
		if o.Counters != nil && o.Counters[k] != n.Counters[k] {
			c += fmt.Sprintf(" (was %d)", o.Counters[k])
		}
		line = append(line, c)
	}
	if len(line) > 0 {
		fmt.Printf("%-12s      %s\n", "", strings.Join(line, "  "))
	}
}

// sortedKeys returns the union of the maps' keys in sorted order.
func sortedKeys(a, b map[string]uint64) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

func load(path string) (profile.BenchReport, error) {
	var r profile.BenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Experiments) == 0 {
		return r, fmt.Errorf("%s: no experiments in report", path)
	}
	return r, nil
}

// pctDelta returns the percent change from old to new (positive =
// regression for costs like wall clock and allocations).
func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}
