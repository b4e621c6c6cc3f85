package kv

import (
	"runtime"
	"runtime/debug"
	"testing"

	"compmig/internal/core"
	"compmig/internal/sim"
)

// TestCarrierStacksStaySmall pins the stack footprint of simulated
// threads. A goroutine's stack shrinks only during a collection, so
// with the collector off, three shared-memory runs whose requests
// descend and scan the B-tree index leave every stack at the largest
// size it reached. Each run's arrivals overlap, so the runs start
// hundreds of carriers; their stacks must average no more than 4 KiB
// plus stackSlack. A carrier that ran other threads' callbacks on top
// of its own frames, or a frame that holds a large array, grows to
// 8 KiB and fails it.
func TestCarrierStacksStaySmall(t *testing.T) {
	const stackSlack = 256
	if raceEnabled {
		t.Skip("the race detector's instrumentation enlarges every frame")
	}
	cfg := Config{
		Scheme: core.Scheme{Mechanism: core.SharedMem},
		Load:   mustSpec(t, "keys=256,ops=1500,period=15,zipf=0.9,mix=45:45:10,scan=16"),
	}
	for sim.RetiredRecords() > 0 {
		sim.NewEngine(1) // drops a retired lane, so the runs start carriers of their own
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		RunExperiment(cfg)
	}
	runtime.ReadMemStats(&after)
	carriers := runtime.NumGoroutine() - goroutines
	if carriers < 100 {
		t.Fatalf("the runs started %d carriers, want at least 100 for a stack average to mean anything", carriers)
	}
	per := (after.StackInuse - before.StackInuse) / uint64(carriers)
	t.Logf("%d carriers, %d stack bytes each", carriers, per)
	if per > 4096+stackSlack {
		t.Errorf("carrier stacks average %d bytes, want at most %d", per, 4096+stackSlack)
	}
}
