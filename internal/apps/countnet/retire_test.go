package countnet

import (
	"sync"
	"testing"

	"compmig/internal/clitest"
	"compmig/internal/core"
)

// TestRunAllocs pins what a finished run hands to the next: three
// identical CM runs back to back, the first from an empty retired stack
// (see clitest.RunAllocs).
func TestRunAllocs(t *testing.T) {
	cfg := Config{Scheme: core.Scheme{Mechanism: core.Migrate}, Threads: 16}
	clitest.RunAllocs(t, func() { RunExperiment(cfg) })
}

// TestRetireReviveConcurrent runs machines on two workers at once, so
// their lanes retire onto and revive from the one retired stack
// concurrently (run under -race in CI): every run must match the same
// configuration run alone, whichever earlier run's records it revived.
func TestRetireReviveConcurrent(t *testing.T) {
	cfgs := []Config{
		{Scheme: core.Scheme{Mechanism: core.Migrate}, Measure: 20000},
		{Scheme: core.Scheme{Mechanism: core.RPC}, Measure: 20000, Shards: 2},
		{Scheme: core.Scheme{Mechanism: core.SharedMem}, Measure: 20000},
		{Scheme: core.Scheme{Mechanism: core.ObjMigrate}, Measure: 20000},
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = RunExperiment(cfg)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range cfgs {
					i := (k + w) % len(cfgs)
					if got := RunExperiment(cfgs[i]); !sameRun(got, want[i]) {
						t.Errorf("worker %d, %s: throughput %v, %d messages; alone %v, %d",
							w, got.Scheme, got.Throughput, got.Messages, want[i].Throughput, want[i].Messages)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// sameRun compares the simulated results of two runs.
func sameRun(a, b Result) bool {
	return a.Throughput == b.Throughput && a.Bandwidth == b.Bandwidth && a.Messages == b.Messages &&
		a.Ops == b.Ops && a.MeanLatency == b.MeanLatency && a.P95Latency == b.P95Latency
}
