//go:build go1.23

package sim

import "iter"

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
// list, which a revived lane fills with the carriers of an earlier run
// (see Machine.Retire), else a new coroutine.
func (e *Engine) bind(th *Thread) *carrier {
	var c *carrier
	if n := len(e.carriers); n > 0 {
		c = e.carriers[n-1]
		e.carriers[n-1] = nil
		e.carriers = e.carriers[:n-1]
	} else {
		c = new(carrier)
		c.next, _ = iter.Pull(c.loop)
	}
	c.bind(th)
	return c
}
