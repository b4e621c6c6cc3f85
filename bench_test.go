// Benchmarks of the simulator's host cost: the whole quick-scale
// evaluation suite (serial and on one worker per CPU) and the engine's
// sleep fast and slow paths. The per-table numbers come from
// `paperfigs -exp <id>`, and `paperfigs -bench-json` times each
// experiment; the helpers below configure ablation_bench_test.go's
// runs at the same quick-scale windows.
package compmig

import (
	"testing"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
	"compmig/internal/core"
	"compmig/internal/harness"
	"compmig/internal/sim"
)

func countnetConfig(scheme core.Scheme, threads int, think uint64) countnet.Config {
	return countnet.Config{
		Threads: threads, Think: think, Scheme: scheme,
		Warmup: 10000, Measure: 60000,
	}
}

func btreeConfig(scheme core.Scheme, think uint64) btree.Config {
	return btree.Config{
		Scheme: scheme, Think: think,
		Warmup: 10000, Measure: 60000,
	}
}

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

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
