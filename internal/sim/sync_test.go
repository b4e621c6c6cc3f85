package sim

import "testing"

func TestMutexExclusionAndFIFO(t *testing.T) {
	e := newEngine(t, 1)
	var mu Mutex
	var order []int
	var acquired []Time
	inside := 0
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("w", Time(i), func(th *Thread) {
			mu.Lock(th)
			inside++
			if inside != 1 {
				t.Errorf("mutual exclusion violated: %d inside", inside)
			}
			order = append(order, i)
			acquired = append(acquired, th.Now())
			th.Sleep(100)
			inside--
			mu.Unlock(th)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("lock handoff not FIFO: %v", order)
		}
	}
	// Threads 1-3 arrive while the lock is held and each waits for the
	// previous holder's 100-cycle critical section.
	for i, at := range acquired {
		if at != Time(100*i) {
			t.Fatalf("thread %d acquired at %d, want %d", i, at, 100*i)
		}
	}
	if mu.owner != nil {
		t.Fatal("mutex still held at end")
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	e := newEngine(t, 1)
	var mu Mutex
	e.Spawn("a", 0, func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("Unlock by non-owner did not panic")
			}
			// Re-signal engine handoff correctness by exiting normally.
		}()
		mu.Unlock(th)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFutureCompleteBeforeWait(t *testing.T) {
	e := newEngine(t, 1)
	f := &Future{}
	f.Complete(99)
	var got any
	e.Spawn("w", 0, func(th *Thread) { got = f.Wait(th) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("got %v, want 99", got)
	}
}

func TestFutureWaitBeforeComplete(t *testing.T) {
	e := newEngine(t, 1)
	f := &Future{}
	var got any
	var when Time
	e.Spawn("w", 0, func(th *Thread) {
		got = f.Wait(th)
		when = th.Now()
	})
	e.Schedule(500, func() { f.Complete("hi") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hi" || when != 500 {
		t.Fatalf("got %v at %d", got, when)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	f := &Future{}
	f.Complete(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double Complete did not panic")
		}
	}()
	f.Complete(2)
}

func TestWaitQueueBroadcast(t *testing.T) {
	e := newEngine(t, 1)
	var q WaitQueue
	released := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", 0, func(th *Thread) {
			q.Wait(th, "test")
			released++
		})
	}
	e.Schedule(10, func() {
		if n := q.Broadcast(); n != 5 {
			t.Errorf("broadcast released %d, want 5", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if released != 5 {
		t.Fatalf("released = %d, want 5", released)
	}
}

func TestBarrier(t *testing.T) {
	e := newEngine(t, 1)
	b := NewBarrier(3)
	var crossed []Time
	for i := 0; i < 3; i++ {
		d := Time(i * 100)
		e.Spawn("w", d, func(th *Thread) {
			b.Arrive(th)
			crossed = append(crossed, th.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(crossed) != 3 {
		t.Fatalf("crossed = %v", crossed)
	}
	for _, c := range crossed {
		if c != 200 {
			t.Fatalf("thread crossed at %d, want all at 200: %v", c, crossed)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := newEngine(t, 1)
	b := NewBarrier(2)
	gens := 0
	for i := 0; i < 2; i++ {
		e.Spawn("w", 0, func(th *Thread) {
			for g := 0; g < 3; g++ {
				th.Sleep(10)
				b.Arrive(th)
			}
			gens++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if gens != 2 {
		t.Fatalf("threads finished = %d", gens)
	}
}

func TestWaitQueueLenAndFutureDone(t *testing.T) {
	e := newEngine(t, 1)
	var q WaitQueue
	f := &Future{}
	if f.done {
		t.Error("fresh future done")
	}
	e.Spawn("w", 0, func(th *Thread) {
		q.Wait(th, "x")
	})
	e.Schedule(5, func() {
		if q.Len() != 1 {
			t.Errorf("queue len = %d", q.Len())
		}
		q.Broadcast()
		f.Complete(nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !f.done {
		t.Error("completed future not done")
	}
	if q.Len() != 0 {
		t.Errorf("queue len after broadcast = %d", q.Len())
	}
}

func TestBarrierValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-count barrier accepted")
		}
	}()
	NewBarrier(0)
}
