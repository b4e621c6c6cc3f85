package sim

import "fmt"

// Thread is a simulated lightweight thread (in the sense of a threads
// package, per the paper's footnote 1 — heavier than TAM threads). Each
// Thread is backed by a goroutine, but the engine guarantees only one runs
// at a time, so thread bodies may freely touch shared simulation state.
//
// Thread objects (and their goroutines) are pooled: once a body returns,
// the engine recycles the thread for a later Spawn. Retain the handle
// only while the thread is live; an exited thread's object may already
// be running an unrelated body.
type Thread struct {
	eng    *Engine
	id     int
	name   string
	body   func(*Thread) // pending body; nil tells loop to terminate
	resume chan struct{}
	state  threadState
	where  string // description of the blocking site, for deadlock reports

	// stream is the event stream the thread's wakeups execute as: the
	// processor the thread is bound to on a clustered engine (set by
	// Proc.Spawn), or the spawner's ambient stream. Zero and unused on a
	// serial engine.
	stream int32

	// scratch is the future handed out by ScratchFuture.
	scratch Future
}

type threadState int

const (
	threadRunnable threadState = iota
	threadRunning
	threadParked
	threadDone
)

// Spawn creates a simulated thread that begins executing body at time
// e.Now()+delay. The body runs under engine control; it must only interact
// with the simulation through the Thread it receives.
func (e *Engine) Spawn(name string, delay Time, body func(*Thread)) *Thread {
	return e.spawnAt(name, delay, body, e.curStream)
}

// spawnAt is Spawn with an explicit stream binding: the thread's wakeup
// events execute as stream (processor id on a clustered engine).
func (e *Engine) spawnAt(name string, delay Time, body func(*Thread), stream int32) *Thread {
	e.nextTID++
	var th *Thread
	if n := len(e.threadPool); n > 0 {
		th = e.threadPool[n-1]
		e.threadPool[n-1] = nil
		e.threadPool = e.threadPool[:n-1]
		th.id, th.name, th.body = e.nextTID, name, body
		th.state, th.where = threadRunnable, ""
		th.stream = stream
	} else {
		th = &Thread{
			eng:    e,
			id:     e.nextTID,
			name:   name,
			body:   body,
			resume: make(chan struct{}),
			stream: stream,
		}
		// The goroutine is the coroutine substrate itself: the engine's
		// single-runner handoff (resume/handoff channels) guarantees at
		// most one simulated thread executes at a time, so spawning here
		// cannot introduce scheduling nondeterminism (see package doc).
		go th.loop() //simvet:allow coroutine substrate; single-runner handoff keeps execution deterministic
	}
	e.liveThreads++
	e.allThreads[th] = struct{}{}
	e.scheduleWake(e.now+delay, th)
	return th
}

// loop is the goroutine behind a Thread for its whole pooled lifetime:
// run the pending body, retire into the pool, and wait for the engine to
// hand it a new body, repeat. A wakeup with no pending body is the
// engine's drain signal and terminates the goroutine.
func (th *Thread) loop() {
	<-th.resume // wait for first dispatch of the first body
	for {
		body := th.body
		if body == nil {
			return
		}
		th.body = nil
		th.state = threadRunning
		body(th)
		if !th.exit() {
			<-th.resume // wait for dispatch of the next body
		}
	}
}

// exit retires the thread into the spawn pool and keeps pumping events
// on its goroutine the way park does, so control passes straight to the
// next thread to run instead of bouncing through the engine goroutine.
// It mirrors park's bookkeeping: the thread must be the engine's current
// runner, and Engine.current is cleared rather than left pointing at a
// dead thread while the pump runs. It reports whether the pump popped
// the thread's own next wakeup — a callback respawned it from the pool
// — in which case loop runs the new body in place.
func (th *Thread) exit() bool {
	e := th.eng
	if e.current != th {
		panic("sim: thread exiting while not the current runner")
	}
	th.state = threadDone
	th.where = "exited"
	e.liveThreads--
	delete(e.allThreads, th)
	e.threadPool = append(e.threadPool, th)
	e.current = nil
	return e.drive(th)
}

// Engine returns the engine this thread belongs to.
func (th *Thread) Engine() *Engine { return th.eng }

// ID returns the thread's unique id (1-based, in spawn order).
func (th *Thread) ID() int { return th.id }

// Name returns the name given at spawn.
func (th *Thread) Name() string { return th.name }

// Now returns the current simulated time.
func (th *Thread) Now() Time { return th.eng.now }

func (th *Thread) String() string {
	return fmt.Sprintf("%s#%d@%s", th.name, th.id, th.where)
}

// ScratchFuture resets and returns a future owned by the thread, for
// rendezvous whose lifetimes never overlap (e.g. one demand miss at a
// time): each call invalidates the value of the previous one. Callers
// that can have several in flight must allocate their own futures.
func (th *Thread) ScratchFuture() *Future {
	th.scratch.Reset()
	return &th.scratch
}

// park blocks the thread until some event resumes it. The caller must
// have arranged for a wakeup.
//
// Rather than bouncing control back to the engine goroutine on every
// block, the parking thread becomes the driver (see drive). Event order
// comes solely from the heap, so the execution is identical to
// engine-driven dispatch — only the goroutine doing the popping changes.
func (th *Thread) park(where string) {
	e := th.eng
	if e.current != th {
		panic("sim: park called from a thread that is not running")
	}
	th.state = threadParked
	th.where = where
	e.current = nil
	if !e.drive(th) {
		<-th.resume
	}
	e.current = th
	th.state = threadRunning
	th.where = ""
}

// drive pumps events on the goroutine of th, which has just parked or
// exited. Plain callbacks run inline. When th's own wakeup comes up,
// drive makes th current and returns true: th keeps running on the same
// goroutine with no switch. Another thread's wakeup hands control to
// that thread directly, and the engine goroutine takes back over only
// when the loop must end (stop, empty heap, run limit, event bound); in
// both cases drive returns false and th's goroutine must wait on
// th.resume before touching simulation state again.
func (e *Engine) drive(th *Thread) (own bool) {
	for {
		if e.stopped || len(e.heap) == 0 ||
			(e.limited && e.heap[0].at > e.runLimit) ||
			(e.MaxEvents != 0 && e.processed >= e.MaxEvents) {
			// The engine loop must take back over: to return, to honor
			// the run limit, or to report deadlock / the event bound.
			e.handoffs++
			e.handoff <- struct{}{}
			return false
		}
		ev := e.heap.pop()
		if ev.at < e.now {
			panic("sim: event heap time went backwards")
		}
		e.now = ev.at
		e.processed++
		if e.cluster != nil {
			e.curStream = ev.exec
		}
		if tw := ev.th; tw != nil {
			e.release(ev)
			e.current = tw
			if tw == th {
				return true // own wakeup: resume in place, no goroutine switch
			}
			e.handoffs++
			tw.resume <- struct{}{}
			return false
		}
		fn := ev.fn
		e.release(ev)
		fn()
	}
}

// Park blocks the thread indefinitely; it runs again only when another
// party calls Unpark. The where string labels the block site in deadlock
// reports.
func (th *Thread) Park(where string) { th.park(where) }

// Unpark schedules th to resume at the current time. It must only be
// called for a thread that is parked (or about to park within the current
// event); the engine's single-runner discipline makes this race-free.
func (th *Thread) Unpark() {
	th.eng.scheduleWake(th.eng.now, th)
}

// UnparkAt schedules th to resume after delay cycles.
func (th *Thread) UnparkAt(delay Time) {
	th.eng.scheduleWake(th.eng.now+delay, th)
}

// Sleep advances the thread's virtual time by d cycles without occupying
// any processor (used for "think time" in the paper's workloads). When no
// other event fires at or before the wakeup time, the thread advances the
// clock itself and keeps running, skipping the park/resume handoff.
func (th *Thread) Sleep(d Time) {
	if d == 0 {
		return
	}
	if th.eng.fastAdvance(th.eng.now + d) {
		return
	}
	th.eng.scheduleWake(th.eng.now+d, th)
	th.park("sleep")
}

// Yield reschedules the thread at the current time behind already-queued
// events. When no event is queued at the current time, it is a no-op.
func (th *Thread) Yield() {
	if th.eng.fastAdvance(th.eng.now) {
		return
	}
	th.eng.scheduleWake(th.eng.now, th)
	th.park("yield")
}
