//go:build go1.23

package sim

import (
	"iter"
	"sync" //simvet:allow host-side idle-carrier pool shared by engines on harness workers; an idle carrier holds no simulated state
)

// carrier is the host coroutine a simulated thread runs on: one iter.Pull
// coroutine whose loop runs the bodies of the threads bound to it, one
// after another. A thread takes a carrier at its first dispatch and gives
// it back when its body returns, so only threads that have started and
// not yet exited hold one.
//
// Only the engine loop (the hub: pump) calls next.
// Inside the coroutine, drive calls suspend to hand control back to the
// hub, which resumes the carrier again only once it has a thread for it:
// its own parked thread's wakeup, or a new binding.
type carrier struct {
	th    *Thread // bound thread; nil while idle or after its thread exits
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// idleCarriers holds carriers no engine is using. Engines hand their free
// carriers here at the end of a run and draw from it when their own free
// list is empty, so a carrier — and the stack it has grown — outlives the
// run that created it. The coroutine runtime lets any goroutine resume a
// carrier, provided calls never overlap and neither side has locked its
// OS thread (nothing here calls runtime.LockOSThread); the mutex orders
// the handover between engines on different harness workers.
var idleCarriers struct {
	sync.Mutex
	free []*carrier
}

// loop is the carrier's coroutine body: run the bound thread's body, then
// retire it, which pumps events until the carrier has its next thread.
// It never returns. A panicking body ends the coroutine and the panic
// surfaces from next in the hub; the dead carrier stays bound to its
// thread and never re-enters a free list.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		th := c.th
		body := th.body
		th.body = nil
		body(th)
		th.exit()
	}
}

// suspend yields control to the hub. A carrier without a thread first
// returns itself to the engine's free list, so the hub can rebind it.
func (c *carrier) suspend(e *Engine) {
	if c.th == nil {
		e.carriers = append(e.carriers, c)
	}
	c.yield(struct{}{})
}

// bind makes c the carrier of th.
func (c *carrier) bind(th *Thread) { c.th, th.carrier = th, c }

// bind gives th a carrier for its first dispatch: from the engine's free
// list, else from the shared idle pool, else a new coroutine.
func (e *Engine) bind(th *Thread) *carrier {
	var c *carrier
	if n := len(e.carriers); n > 0 {
		c = e.carriers[n-1]
		e.carriers[n-1] = nil
		e.carriers = e.carriers[:n-1]
	} else {
		c = takeIdleCarrier()
	}
	c.bind(th)
	return c
}

func takeIdleCarrier() *carrier {
	idleCarriers.Lock()
	if n := len(idleCarriers.free); n > 0 {
		c := idleCarriers.free[n-1]
		idleCarriers.free[n-1] = nil
		idleCarriers.free = idleCarriers.free[:n-1]
		idleCarriers.Unlock()
		return c
	}
	idleCarriers.Unlock()
	c := new(carrier)
	c.next, _ = iter.Pull(c.loop)
	return c
}

// drainCarriers hands the engine's free carriers to the shared idle pool.
// Run and RunUntil call it on exit, and Cluster.Run for each lane.
// Carriers still bound to parked threads stay with their threads.
func (e *Engine) drainCarriers() {
	if len(e.carriers) == 0 {
		return
	}
	idleCarriers.Lock()
	idleCarriers.free = append(idleCarriers.free, e.carriers...)
	idleCarriers.Unlock()
	clear(e.carriers)
	e.carriers = e.carriers[:0]
}
