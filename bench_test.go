// Benchmarks of the simulator's host cost: the whole quick-scale
// evaluation suite (serial and on one worker per CPU) and the engine's
// sleep fast and slow paths. The per-table numbers, the design-choice
// ablations included, come from `paperfigs -exp <id>`, and
// `paperfigs -bench-json` times each experiment.
package compmig

import (
	"testing"

	"compmig/internal/harness"
	"compmig/internal/sim"
)

// benchSuite runs the whole quick-scale evaluation suite — every table
// and figure — with the given worker count.
func benchSuite(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run("all", harness.Options{Quick: true, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSerial measures the full quick-scale suite executed
// serially (workers=1), the pre-worker-pool behavior.
func BenchmarkSuiteSerial(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteParallel measures the full quick-scale suite on one
// worker per CPU. Output is byte-identical to the serial run; only the
// wall clock changes.
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 0) }

// BenchmarkSuiteEngineSleep measures the simulator's uncontended
// sleep path: a single thread sleeping repeatedly, which the engine can
// satisfy by fast-advancing the clock with no event allocation or
// channel handoff.
func BenchmarkSuiteEngineSleep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		eng.Spawn("sleeper", 0, func(th *sim.Thread) {
			for k := 0; k < 1000; k++ {
				th.Sleep(10)
			}
		})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteEngineContendedSleep measures the event-heap slow path:
// two threads whose sleeps always interleave, so every wakeup goes
// through a (pooled) event and the park/resume handoff.
func BenchmarkSuiteEngineContendedSleep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		for t := 0; t < 2; t++ {
			eng.Spawn("sleeper", 0, func(th *sim.Thread) {
				for k := 0; k < 500; k++ {
					th.Sleep(10)
				}
			})
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
