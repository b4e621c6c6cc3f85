package sim

// Mutex is a FIFO mutual-exclusion lock for simulated threads. Lock and
// Unlock take zero simulated time themselves; callers charge processor
// cycles separately through the cost model.
type Mutex struct {
	owner   *Thread
	waiters []*Thread
}

// Lock blocks th until it holds the mutex. Waiters are served FIFO.
func (m *Mutex) Lock(th *Thread) {
	if m.owner == th {
		panic("sim: recursive Mutex.Lock")
	}
	if m.owner == nil {
		m.owner = th
		return
	}
	m.waiters = append(m.waiters, th)
	th.park("mutex")
	// The unlocker set us as owner before waking us.
	if m.owner != th {
		panic("sim: woke from Mutex.Lock without ownership")
	}
}

// Unlock releases the mutex and wakes the longest-waiting thread, if any.
func (m *Mutex) Unlock(th *Thread) {
	if m.owner != th {
		panic("sim: Mutex.Unlock by non-owner")
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	copy(m.waiters, m.waiters[1:])
	m.waiters = m.waiters[:len(m.waiters)-1]
	m.owner = next
	next.Unpark()
}

// WaitQueue is a simple condition-style queue: threads Wait on it and are
// released in FIFO order by Signal/Broadcast.
type WaitQueue struct {
	waiters []*Thread
}

// Wait parks th on the queue. The where label appears in deadlock reports.
func (q *WaitQueue) Wait(th *Thread, where string) {
	q.waiters = append(q.waiters, th)
	th.park(where)
}

// Signal wakes the longest-waiting thread and reports whether one existed.
func (q *WaitQueue) Signal() bool {
	if len(q.waiters) == 0 {
		return false
	}
	next := q.waiters[0]
	copy(q.waiters, q.waiters[1:])
	q.waiters = q.waiters[:len(q.waiters)-1]
	next.Unpark()
	return true
}

// Broadcast wakes every waiting thread.
func (q *WaitQueue) Broadcast() int {
	n := len(q.waiters)
	for _, th := range q.waiters {
		th.Unpark()
	}
	q.waiters = q.waiters[:0]
	return n
}

// Len returns the number of parked waiters.
func (q *WaitQueue) Len() int { return len(q.waiters) }

// Future is a single-assignment result slot used to model call/reply
// rendezvous (an RPC reply, or a short-circuited migration return).
type Future struct {
	done bool
	val  any
	q    WaitQueue
}

// Complete stores val and wakes all waiters. Completing twice panics:
// a reply must arrive exactly once.
func (f *Future) Complete(val any) {
	if f.done {
		panic("sim: Future completed twice")
	}
	f.done = true
	f.val = val
	f.q.Broadcast()
}

// Reset returns the future to its unset state so it can rendezvous
// again, keeping the waiter queue's storage. Resetting with parked
// waiters would strand them, so it panics.
func (f *Future) Reset() {
	if f.q.Len() > 0 {
		panic("sim: Future.Reset with parked waiters")
	}
	f.done = false
	f.val = nil
}

// Wait blocks th until the future completes and returns the value.
func (f *Future) Wait(th *Thread) any {
	if !f.done {
		f.q.Wait(th, "future")
	}
	if !f.done {
		panic("sim: woke from Future.Wait before completion")
	}
	return f.val
}

// Barrier releases all arriving threads once count of them have arrived.
type Barrier struct {
	need    int
	arrived int
	q       WaitQueue
}

// NewBarrier returns a barrier for count threads.
func NewBarrier(count int) *Barrier {
	if count <= 0 {
		panic("sim: barrier count must be positive")
	}
	return &Barrier{need: count}
}

// Arrive blocks th until count threads have arrived, then releases the
// whole generation and resets the barrier for reuse.
func (b *Barrier) Arrive(th *Thread) {
	b.arrived++
	if b.arrived == b.need {
		b.arrived = 0
		b.q.Broadcast()
		return
	}
	b.q.Wait(th, "barrier")
}
