package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// TestEventPoolReusesFiredEvents asserts that an event object is
// recycled for a later Schedule once it has fired, and that the recycled
// event carries the new callback, not the old one.
func TestEventPoolReusesFiredEvents(t *testing.T) {
	e := newEngine(t, 1)
	var fired []string
	first := e.Schedule(10, func() { fired = append(fired, "first") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	second := e.Schedule(10, func() { fired = append(fired, "second") })
	if first != second {
		t.Error("fired event was not recycled by the next Schedule")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != "first" || fired[1] != "second" {
		t.Fatalf("fired = %v, want [first second]", fired)
	}
}

// TestEventPoolNeverResurrectsCancelledEvent asserts that cancelling an
// event removes it from the heap eagerly and that reusing its object for
// a new event cannot fire the cancelled callback.
func TestEventPoolNeverResurrectsCancelledEvent(t *testing.T) {
	e := newEngine(t, 1)
	var fired []string
	dead := e.Schedule(10, func() { fired = append(fired, "dead") })
	e.Schedule(20, func() { fired = append(fired, "live") })
	dead.Cancel()
	if len(e.heap) != 1 {
		t.Fatalf("heap holds %d events after Cancel, want 1 (eager removal)", len(e.heap))
	}
	dead.Cancel() // second cancel of the same pending handle is a no-op
	if len(e.heap) != 1 {
		t.Fatalf("double Cancel removed a live event: heap len %d", len(e.heap))
	}
	reused := e.Schedule(30, func() { fired = append(fired, "reused") })
	if reused != dead {
		t.Error("cancelled event was not recycled by the next Schedule")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != "live" || fired[1] != "reused" {
		t.Fatalf("fired = %v, want [live reused] and never the cancelled fn", fired)
	}
}

// TestMaxEventsTypedError asserts both run loops surface the runaway
// guard as a *MaxEventsError.
func TestMaxEventsTypedError(t *testing.T) {
	for _, until := range []Time{0, 100} {
		e := newEngine(t, 1)
		e.MaxEvents = 5
		var reschedule func()
		reschedule = func() { e.Schedule(1, reschedule) }
		e.Schedule(1, reschedule)
		var err error
		if until == 0 {
			err = e.Run()
		} else {
			err = e.RunUntil(until)
		}
		var me *MaxEventsError
		if !errors.As(err, &me) {
			t.Fatalf("RunUntil=%d: got %v, want *MaxEventsError", until, err)
		}
		if me.Max != 5 {
			t.Errorf("MaxEventsError.Max = %d, want 5", me.Max)
		}
	}
}

// TestMaxEventsCatchesFastPathLoop asserts the runaway guard still trips
// when a thread spins on fast-path sleeps that never re-enter the event
// loop.
func TestMaxEventsCatchesFastPathLoop(t *testing.T) {
	e := newEngine(t, 1)
	e.MaxEvents = 100
	e.Spawn("spinner", 0, func(th *Thread) {
		for {
			th.Sleep(1)
		}
	})
	var me *MaxEventsError
	if err := e.Run(); !errors.As(err, &me) {
		t.Fatalf("got %v, want *MaxEventsError", err)
	}
}

// TestRunUntilHoldsFastPathAtLimit asserts a sleeping thread cannot
// fast-advance the clock past a RunUntil limit: its wakeup stays queued
// for a later Run.
func TestRunUntilHoldsFastPathAtLimit(t *testing.T) {
	e := newEngine(t, 1)
	var woke Time
	e.Spawn("s", 0, func(th *Thread) {
		th.Sleep(1000)
		woke = th.Now()
	})
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if woke != 0 {
		t.Fatalf("thread woke at %d inside RunUntil(100)", woke)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d after RunUntil(100)", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 1000 {
		t.Fatalf("thread woke at %d, want 1000", woke)
	}
}

// TestSleepFastPathSkipsHeap asserts an uncontended sleep advances the
// clock without queueing an event.
func TestSleepFastPathSkipsHeap(t *testing.T) {
	e := newEngine(t, 1)
	var wake Time
	var heapLen int
	e.Spawn("t", 0, func(th *Thread) {
		th.Sleep(250)
		heapLen = len(e.heap)
		wake = th.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 250 {
		t.Fatalf("woke at %d, want 250", wake)
	}
	if heapLen != 0 {
		t.Fatalf("fast-path sleep queued %d event(s)", heapLen)
	}
}

// yield reschedules th at the current time behind already-queued events,
// or continues at once when nothing else is due: the engine's
// TryAdvance fast path with a same-time wake behind it. The order
// property test mixes it with the other blocking operations.
func yield(th *Thread) {
	if th.eng.TryAdvance(th.eng.now) {
		return
	}
	th.eng.scheduleWake(th.eng.now, th)
	th.Park("yield")
}

// TestYieldRunsBehindQueuedEvents asserts a yield still defers to an
// event already queued at the current time (the slow path), while
// remaining a no-op when nothing else is due.
func TestYieldRunsBehindQueuedEvents(t *testing.T) {
	e := newEngine(t, 1)
	var order []string
	e.Spawn("t", 0, func(th *Thread) {
		e.Schedule(0, func() { order = append(order, "event") })
		yield(th)
		order = append(order, "thread")
		yield(th) // heap now empty: fast path, stays running
		order = append(order, "after")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"event", "thread", "after"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSpawnFromDyingThread is the regression test for the thread-exit
// path: a body whose final action spawns another thread must leave the
// engine's current-thread bookkeeping consistent, and the child must
// still run.
func TestSpawnFromDyingThread(t *testing.T) {
	e := newEngine(t, 1)
	var order []string
	e.Spawn("parent", 0, func(th *Thread) {
		order = append(order, "parent")
		e.Spawn("child", 0, func(*Thread) {
			order = append(order, "child")
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "parent" || order[1] != "child" {
		t.Fatalf("order = %v, want [parent child]", order)
	}
	if e.liveThreads != 0 {
		t.Fatalf("live threads = %d after Run", e.liveThreads)
	}
	if e.current != nil {
		t.Fatal("Engine.current not cleared after all threads exited")
	}
}

// TestExecFastPathKeepsSerialization asserts the Exec fast path does not
// break processor-queueing semantics when other events are due first.
func TestExecFastPathKeepsSerialization(t *testing.T) {
	e := newEngine(t, 1)
	m := NewMachine(e, 1)
	p := m.Proc(0)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn("w", 0, func(th *Thread) {
			th.Exec(p, 100)
			ends = append(ends, th.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

// TestEverySwitchGoesThroughTheHub pins the carrier switch contract:
// every thread wakeup is one switch from the hub into the thread's
// carrier, and every park or exit is one switch back out, so
// engine.handoffs counts two per wakeup. It covers an exit into a thread
// that has never run, an exit into a parked thread, a respawn of the
// exiting thread's own pooled object, and a Sleep the clock cannot
// skip.
func TestEverySwitchGoesThroughTheHub(t *testing.T) {
	e := newEngine(t, 1)
	wakeups := uint64(0)
	woke := func(want uint64) {
		wakeups++
		if e.handoffs != want {
			t.Errorf("wakeup %d: %d handoffs, want %d", wakeups, e.handoffs, want)
		}
	}
	waiter := e.Spawn("waiter", 0, func(th *Thread) {
		woke(1) // hub -> waiter
		th.Park("wait")
		woke(7) // waiter out, hub -> waker, waker out, hub -> first, first out, hub -> waiter
		th.Sleep(100)
		woke(11) // waiter out, hub -> second, second out, hub -> waiter
	}) // and out: 12
	e.Spawn("waker", 5, func(th *Thread) {
		woke(3)
		e.Spawn("first", 0, func(th *Thread) {
			woke(5)
			e.Schedule(5, func() {
				e.Spawn("second", 0, func(th *Thread) { woke(9) })
			})
		})
		waiter.Unpark()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakeups != 6 || e.handoffs != 2*wakeups {
		t.Fatalf("%d wakeups cost %d handoffs, want 6 and 12", wakeups, e.handoffs)
	}
	if h := pingPong(t, 3, 20); h%2 != 0 {
		t.Fatalf("ping-pong run counted %d handoffs, want an even count", h)
	}
}

// TestCallbacksRunOnTheHub asserts that no event callback runs on a
// carrier's stack, even while every thread is parked, and that a
// respawned thread reuses the exited thread's carrier.
func TestCallbacksRunOnTheHub(t *testing.T) {
	e := newEngine(t, 1)
	onCarrier := func() bool {
		buf := make([]byte, 8<<10)
		return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*carrier).loop")
	}
	var first, second *carrier
	e.Spawn("first", 0, func(th *Thread) {
		if !onCarrier() {
			t.Error("a thread body is not running on a carrier")
		}
		first = th.carrier
		e.Schedule(5, func() {
			if onCarrier() {
				t.Error("a callback ran on a carrier")
			}
			e.Spawn("second", 0, func(th *Thread) { second = th.carrier })
		})
		th.Park("wait")
	})
	e.Schedule(3, func() { e.live[0].Unpark() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if first == nil || first != second {
		t.Fatal("the respawned thread did not reuse the exited thread's carrier")
	}
}

// TestArrivalRunAllocs pins that the serial engine reads an arrival
// schedule in place: a fresh machine running one SpawnArrivals batch of
// n threads whose bodies return at once allocates the same heap bytes
// at n = 100 and at n = 10,000. One thread is live at a time, so the
// engine's thread, event and carrier pools grow the same at both sizes,
// and a copy of the schedule is all that could grow with n. Each machine
// retires after its run, so the next one revives its pools.
func TestArrivalRunAllocs(t *testing.T) {
	isolateRetired(t)
	bytes := func(n int) uint64 {
		e := NewEngine(1)
		m := NewMachine(e, 4)
		body := func(*Thread) {}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.SpawnArrivals("a", n, func(i int) (Time, int, func(*Thread)) {
			return Time(i) * 10, i % 4, body
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		m.Retire()
		return after.TotalAlloc - before.TotalAlloc
	}
	// The least of three runs, because the race detector's runtime
	// allocates a few bytes of its own now and then.
	least := func(n int) uint64 { return min(bytes(n), bytes(n), bytes(n)) }
	bytes(100) // retires a lane with a carrier for the runs to revive
	if small, large := least(100), least(10000); small != large {
		t.Fatalf("an arrival run allocated %d bytes at n=100 and %d at n=10,000, want the same", small, large)
	}
}
