package sim

import "testing"

// The BenchmarkEngine* microbenchmarks pin the cost of the event queue
// per event. One op is one whole engine run of a fixed scenario, so
// allocs/op is the run's allocation bill; ns/event divides the time by
// every event the engine processed, fast-path advances included.

// runEngineBench runs build-and-run once per op and reports ns/event.
func runEngineBench(b *testing.B, run func() *Engine) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		e := run()
		if e.Live() != 0 {
			b.Fatalf("%d thread(s) still live", e.Live())
		}
		events += e.processed
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkEngineDeepQueue: 64 threads each book 200 work segments
// round-robin on 4 processors, so about 16 threads queue behind every
// processor and nearly every wakeup waits in a processor's run.
func BenchmarkEngineDeepQueue(b *testing.B) {
	runEngineBench(b, func() *Engine {
		e := NewEngine(1)
		m := NewMachine(e, 4)
		for i := 0; i < 64; i++ {
			i := i
			e.Spawn("exec", Time(i), func(th *Thread) {
				for k := 0; k < 200; k++ {
					th.Exec(m.Proc((i+k)%4), 10+Time(k%7))
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		return e
	})
}

// BenchmarkEngineZeroDelay: two threads hand control back and forth
// 10,000 times through Unpark and Park, so every event is a zero-delay
// wakeup.
func BenchmarkEngineZeroDelay(b *testing.B) {
	runEngineBench(b, func() *Engine {
		e := NewEngine(1)
		var ths [2]*Thread
		left := 10000
		body := func(me int) func(*Thread) {
			return func(th *Thread) {
				if me == 1 {
					th.Park("start")
				}
				for left > 0 {
					left--
					ths[1-me].Unpark()
					th.Park("pong")
				}
				if left == 0 { // release the peer, still parked in the loop
					left--
					ths[1-me].Unpark()
				}
			}
		}
		ths[1] = e.Spawn("pong", 0, body(1))
		ths[0] = e.Spawn("ping", 1, body(0))
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		return e
	})
}

// BenchmarkEngineSortedArrivals: an open-loop source of 4,000 arrivals,
// 40 cycles apart, spread over 4 processors through SpawnSorted; each
// arrival books one 100-cycle segment and exits, so the processors fall
// behind and a backlog builds.
func BenchmarkEngineSortedArrivals(b *testing.B) {
	runEngineBench(b, func() *Engine {
		e := NewEngine(1)
		m := NewMachine(e, 4)
		var bodies [4]func(*Thread)
		for i := range bodies {
			p := m.Proc(i)
			bodies[i] = func(th *Thread) { th.Exec(p, 100+Time(th.ID()%50)) }
		}
		for i := 0; i < 4000; i++ {
			m.Proc(i%4).SpawnSorted("req", Time(i)*40, bodies[i%4])
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		return e
	})
}
