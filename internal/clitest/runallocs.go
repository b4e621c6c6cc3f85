package clitest

import (
	"runtime"
	"runtime/debug"
	"testing"

	"compmig/internal/sim"
)

// RunAllocs pins what a finished run hands to the next (see
// sim.Machine.Retire). It empties the retired stack, then makes three
// identical runs back to back, and fails unless runs 2 and 3 allocate
// the same number of heap objects and run 2 at least as many fewer than
// run 1 as run 1 retired idle records: every record run 1 pooled is
// revived, not made again. The runs are measured on one host thread with
// the collector off, as testing.AllocsPerRun does; the test process's
// own goroutines still allocate now and then, so a sequence whose runs 2
// and 3 differ is made again, up to three times.
//
//simvet:allow test-helper package: the countnet and kv tests pin their cross-run allocations with it
func RunAllocs(t *testing.T, run func()) {
	t.Helper()
	var allocs [3]uint64
	var pooled int
	for try := 1; ; try++ {
		allocs, pooled = runAllocs(run)
		if allocs[1] == allocs[2] || try == 3 {
			break
		}
		t.Logf("try %d: allocations per run %v", try, allocs)
	}
	t.Logf("allocations per run %v; run 1 retired %d idle records", allocs, pooled)
	if allocs[1] != allocs[2] {
		t.Errorf("runs 2 and 3 allocated %d and %d objects, want the same", allocs[1], allocs[2])
	}
	if pooled == 0 || allocs[0] < allocs[1]+uint64(pooled) {
		t.Errorf("run 2 allocated %d objects fewer than run 1, want at least the %d records run 1 retired",
			int64(allocs[0])-int64(allocs[1]), pooled)
	}
}

// runAllocs empties the retired stack (each new engine revives one
// lane, which is then dropped) and returns the heap objects each of
// three runs allocated and the idle records the first one retired.
func runAllocs(run func()) (allocs [3]uint64, pooled int) {
	for sim.RetiredRecords() > 0 {
		sim.NewEngine(1)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	for i := range allocs {
		runtime.ReadMemStats(&ms)
		start := ms.Mallocs
		run()
		runtime.ReadMemStats(&ms)
		allocs[i] = ms.Mallocs - start
		if i == 0 {
			pooled = sim.RetiredRecords()
		}
	}
	return allocs, pooled
}
