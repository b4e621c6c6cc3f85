package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// newEngine is NewEngine for a test: the engine retires when the test
// ends, so its idle carriers go on to the next test's engine instead of
// staying parked for the life of the test binary.
func newEngine(t testing.TB, seed uint64) *Engine {
	e := NewEngine(seed)
	t.Cleanup(e.retire)
	return e
}

// newCluster is NewCluster for a test: every lane retires when the test
// ends.
func newCluster(t testing.TB, seed uint64, shards int) *Cluster {
	cl := NewCluster(seed, shards)
	t.Cleanup(func() {
		for _, e := range cl.lanes {
			e.retire()
		}
	})
	return cl
}

func TestScheduleOrdering(t *testing.T) {
	e := newEngine(t, 1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := newEngine(t, 1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := newEngine(t, 1)
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := newEngine(t, 1)
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("nested schedule times = %v, want [10 15]", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := newEngine(t, 1)
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	e := newEngine(t, 1)
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	if err := e.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock after RunUntil = %d, want 25", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("Run after RunUntil fired %v", fired)
	}
}

func TestStop(t *testing.T) {
	e := newEngine(t, 1)
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("processed %d events after Stop at 3", count)
	}
}

func TestMaxEvents(t *testing.T) {
	e := newEngine(t, 1)
	e.MaxEvents = 5
	var reschedule func()
	reschedule = func() { e.Schedule(1, reschedule) }
	e.Schedule(1, reschedule)
	if err := e.Run(); err == nil {
		t.Fatal("runaway loop not caught by MaxEvents")
	}
}

func TestThreadSleepAndClock(t *testing.T) {
	e := newEngine(t, 1)
	var wake Time
	e.Spawn("t", 0, func(th *Thread) {
		th.Sleep(100)
		wake = th.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 100 {
		t.Fatalf("thread woke at %d, want 100", wake)
	}
	if e.liveThreads != 0 {
		t.Fatalf("live threads = %d after Run", e.liveThreads)
	}
}

func TestThreadsInterleaveDeterministically(t *testing.T) {
	run := func() []int {
		e := newEngine(t, 42)
		var order []int
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn("t", 0, func(th *Thread) {
				for j := 0; j < 3; j++ {
					th.Sleep(Time(1 + e.Rand().Intn(5)))
					order = append(order, i)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != 15 || len(b) != 15 {
		t.Fatalf("wrong lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, a, b)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := newEngine(t, 1)
	e.Spawn("stuck", 0, func(th *Thread) {
		th.Park("nowhere")
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked list = %v", de.Blocked)
	}
}

func TestUnparkRoundTrip(t *testing.T) {
	e := newEngine(t, 1)
	var sleeper *Thread
	hits := 0
	sleeper = e.Spawn("sleeper", 0, func(th *Thread) {
		th.Park("wait-for-poke")
		hits++
	})
	e.Spawn("poker", 0, func(th *Thread) {
		th.Sleep(50)
		sleeper.Unpark()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatal("sleeper never resumed")
	}
}

func TestProcSerializesSegments(t *testing.T) {
	e := newEngine(t, 1)
	m := NewMachine(e, 2)
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
	if len(ends) != 3 {
		t.Fatalf("got %d completions", len(ends))
	}
	want := []Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("serialized ends = %v, want %v", ends, want)
		}
	}
	if p.Busy != 300 {
		t.Fatalf("busy = %d, want 300", p.Busy)
	}
}

func TestProcsRunInParallel(t *testing.T) {
	e := newEngine(t, 1)
	m := NewMachine(e, 2)
	var ends []Time
	for i := 0; i < 2; i++ {
		p := m.Proc(i)
		e.Spawn("w", 0, func(th *Thread) {
			th.Exec(p, 100)
			ends = append(ends, th.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, end := range ends {
		if end != 100 {
			t.Fatalf("parallel procs: ends = %v, want both 100", ends)
		}
	}
}

func TestExecAsync(t *testing.T) {
	e := newEngine(t, 1)
	m := NewMachine(e, 1)
	var done Time
	m.Proc(0).ExecAsync(77, func() { done = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 77 {
		t.Fatalf("async segment finished at %d, want 77", done)
	}
}

func TestProcUtilization(t *testing.T) {
	e := newEngine(t, 1)
	m := NewMachine(e, 1)
	e.Spawn("w", 0, func(th *Thread) {
		th.Exec(m.Proc(0), 50)
		th.Sleep(50)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := m.Proc(0).Utilization(); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestPRNGDeterminism(t *testing.T) {
	a, b := NewPRNG(7), NewPRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed PRNGs diverged")
		}
	}
	c := NewPRNG(8)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewPRNG(7).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatal("different seeds produce suspiciously similar streams")
	}
}

func TestPRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		p := NewPRNG(seed)
		for i := 0; i < 50; i++ {
			v := p.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPRNGFloat64Range(t *testing.T) {
	p := NewPRNG(3)
	for i := 0; i < 10000; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

// TestDeadlockReportsExactlyTheParked checks the engine's live set
// through its one reader, the deadlock report: threads exit in an order
// scrambled against their spawn order, some spawn a child first, which
// reuses an exited thread's object, and a known subset of threads and
// children park forever. DeadlockError.Blocked must name exactly that
// subset, on the serial engine and on a cluster.
func TestDeadlockReportsExactlyTheParked(t *testing.T) {
	for _, shards := range []int{0, 1, 3} {
		var m *Machine
		var run func() error
		if shards == 0 {
			e := newEngine(t, 1)
			m, run = NewMachine(e, 4), e.Run
		} else {
			cl := newCluster(t, 1, shards)
			m, run = cl.NewMachine(4), cl.Run
			cl.SetLookahead(5)
		}
		// Per processor, so lanes running in parallel share nothing.
		never := make([]Future, 4)
		stuck := make([][]*Thread, 4)
		const n = 24
		for i := 0; i < n; i++ {
			p := m.Proc(i % 4)
			park := func(th *Thread) {
				stuck[p.ID()] = append(stuck[p.ID()], th)
				never[p.ID()].Wait(th)
			}
			p.Spawn(fmt.Sprintf("t%02d", i), 0, func(th *Thread) {
				th.Sleep(Time(1 + i*7%n*10)) // 7 is prime to n: every thread wakes at its own cycle
				if i%4 == 1 {
					p.Spawn(fmt.Sprintf("c%02d", i), 3, park)
				}
				if i%3 == 0 {
					park(th)
				}
			})
		}
		var de *DeadlockError
		if err := run(); !errors.As(err, &de) {
			t.Fatalf("shards=%d: got %v, want a *DeadlockError", shards, err)
		}
		var want []string
		for _, ths := range stuck {
			for _, th := range ths {
				want = append(want, th.String())
			}
		}
		sort.Strings(want)
		if !reflect.DeepEqual(de.Blocked, want) {
			t.Fatalf("shards=%d: deadlock report names\n%v\nwant\n%v", shards, de.Blocked, want)
		}
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	e := newEngine(t, 1)
	e.Spawn("lost", 0, func(th *Thread) { th.Park("the-void") })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "the-void") {
		t.Fatalf("deadlock error %v does not name the block site", err)
	}
}

func TestUnparkAtDelays(t *testing.T) {
	e := newEngine(t, 1)
	var woke Time
	th := e.Spawn("sleeper", 0, func(th *Thread) {
		th.Park("wait")
		woke = th.Now()
	})
	e.Schedule(10, func() { e.scheduleWake(e.now+90, th) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 100 {
		t.Fatalf("woke at %d, want 100", woke)
	}
}

func TestMachineAccessors(t *testing.T) {
	e := newEngine(t, 1)
	m := NewMachine(e, 3)
	if m.N() != 3 || len(m.procs) != 3 {
		t.Fatalf("N=%d procs=%d", m.N(), len(m.procs))
	}
	if m.Proc(2).ID() != 2 {
		t.Errorf("proc id = %d", m.Proc(2).ID())
	}
	if m.Proc(1).FreeAt() != 0 {
		t.Errorf("fresh proc free at %d", m.Proc(1).FreeAt())
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range proc accepted")
		}
	}()
	m.Proc(9)
}

// TestThreadStringNamesExecProcessor pins the blocking site a thread
// reports while an Exec holds it, which deadlock reports print: the
// processor it executes on, as exec(pN), and the plain label otherwise.
func TestThreadStringNamesExecProcessor(t *testing.T) {
	e := newEngine(t, 1)
	m := NewMachine(e, 3)
	worker := e.Spawn("worker", 0, func(th *Thread) {
		th.Exec(m.Proc(2), 100)
		th.Sleep(100)
	})
	var seen []string
	e.Schedule(50, func() { seen = append(seen, worker.String()) })
	e.Schedule(150, func() { seen = append(seen, worker.String()) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"worker#1@exec(p2)", "worker#1@sleep"}; !reflect.DeepEqual(seen, want) {
		t.Errorf("thread while blocked: %q, want %q", seen, want)
	}
}

func TestPRNGUint64nAndFork(t *testing.T) {
	p := NewPRNG(5)
	for i := 0; i < 100; i++ {
		if v := p.Uint64n(17); v >= 17 {
			t.Fatalf("Uint64n out of range: %d", v)
		}
	}
	child := p.Fork()
	if child.Uint64() == p.Uint64() {
		// Not impossible, but with independent streams a collision on
		// the first draw is a red flag for aliased state.
		t.Error("forked PRNG mirrors its parent")
	}
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) accepted")
		}
	}()
	p.Uint64n(0)
}

func TestIntnNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) accepted")
		}
	}()
	NewPRNG(1).Intn(0)
}
