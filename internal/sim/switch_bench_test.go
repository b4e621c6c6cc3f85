package sim

import "testing"

// BenchmarkThreadSwitch measures one thread-to-thread transfer: two
// threads ping-pong through Unpark/Park, so every Park yields to the
// engine loop, which pops the peer's wakeup and resumes it: two
// coroutine switches. One op is one transfer; ns/op and allocs/op are
// per transfer.
func BenchmarkThreadSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	var ths [2]*Thread
	left, finished := b.N, false
	body := func(me int) func(*Thread) {
		return func(th *Thread) {
			if me == 1 {
				th.Park("start") // released by the first transfer
			}
			for left > 0 {
				left--
				ths[1-me].Unpark()
				th.Park("switch")
			}
			if !finished { // release the peer, still parked in the loop
				finished = true
				ths[1-me].Unpark()
			}
		}
	}
	ths[1] = e.Spawn("pong", 0, body(1))
	ths[0] = e.Spawn("ping", 1, body(0))
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if e.liveThreads != 0 {
		b.Fatalf("%d thread(s) still live", e.liveThreads)
	}
}
