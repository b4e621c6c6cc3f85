package sim

import (
	"sync"
	"testing"
)

// idleSet snapshots the carriers of the retired lanes.
func idleSet() map[*carrier]bool {
	retired.Lock()
	defer retired.Unlock()
	set := make(map[*carrier]bool)
	for _, l := range retired.lanes {
		for _, c := range l.carriers {
			set[c] = true
		}
	}
	return set
}

// isolateRetired empties the retired stack for the rest of the test, so
// what the test reads there is what it retired itself, and puts the
// lanes other tests left back underneath when it ends.
func isolateRetired(t *testing.T) {
	retired.Lock()
	saved := retired.lanes
	retired.lanes = nil
	retired.Unlock()
	t.Cleanup(func() {
		retired.Lock()
		retired.lanes = append(saved, retired.lanes...)
		retired.Unlock()
	})
}

// pingPong runs a fresh engine on which pairs of threads transfer control
// back and forth rounds times, with every pair parked at once, retires
// it, and returns its handoff count. It reports a failed run with
// t.Error, which is safe from any goroutine.
func pingPong(t testing.TB, pairs, rounds int) uint64 {
	e := NewEngine(1)
	for p := 0; p < pairs; p++ {
		var ths [2]*Thread
		left, finished := rounds, false
		body := func(me int) func(*Thread) {
			return func(th *Thread) {
				if me == 1 {
					th.Park("start")
				}
				for left > 0 {
					left--
					ths[1-me].Unpark()
					th.Park("switch")
				}
				if !finished {
					finished = true
					ths[1-me].Unpark()
				}
			}
		}
		ths[1] = e.Spawn("pong", 0, body(1))
		ths[0] = e.Spawn("ping", 1, body(0))
	}
	if err := e.Run(); err != nil {
		t.Error(err)
	}
	e.retire()
	return e.handoffs
}

// TestCarrierPoolSharedAcrossEngines asserts that carriers outlive the
// run that created them: a second engine running the same program
// revives the first one's retired lane, draws every carrier from it and
// retires each one again. It then runs engines on separate goroutines
// against the one retired stack, each reporting the serial handoff count
// (run under -race in CI).
func TestCarrierPoolSharedAcrossEngines(t *testing.T) {
	isolateRetired(t)
	want := pingPong(t, 8, 50)
	before := idleSet()
	if len(before) < 16 {
		t.Fatalf("retired lanes hold %d carriers after a 16-thread run, want >= 16", len(before))
	}
	if got := pingPong(t, 8, 50); got != want {
		t.Fatalf("second engine: %d handoffs, want %d", got, want)
	}
	after := idleSet()
	for c := range after {
		if !before[c] {
			t.Fatal("second engine's Run created a new carrier")
		}
	}
	if len(after) != len(before) {
		t.Fatalf("retired lanes hold %d carriers after the second run, want %d", len(after), len(before))
	}

	var wg sync.WaitGroup
	got := make([]uint64, 4)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got[w] = pingPong(t, 8, 50)
			}
		}()
	}
	wg.Wait()
	for w, h := range got {
		if h != want {
			t.Errorf("worker %d: %d handoffs, want %d", w, h, want)
		}
	}
}

// TestThreadPanicSurfacesAtRun asserts that a panic in a thread body
// reaches Run's caller, where it can be recovered, and that the
// panicked carrier never returns to a retired lane.
func TestThreadPanicSurfacesAtRun(t *testing.T) {
	isolateRetired(t)
	e := NewEngine(1)
	bad := e.Spawn("bad", 0, func(th *Thread) {
		th.Sleep(10)
		panic("boom")
	})
	e.Spawn("busy", 5, func(th *Thread) { th.Sleep(10) }) // bad wakes while busy sleeps
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	c := bad.carrier
	if c == nil || c.th != bad {
		t.Fatal("panicked carrier was unbound from its thread")
	}
	e.retire()
	if idleSet()[c] {
		t.Fatal("panicked carrier re-entered a retired lane")
	}
	if h := pingPong(t, 2, 10); h == 0 {
		t.Fatal("engine after a panic ran no threads")
	}
}
