// Package sim implements a deterministic discrete-event simulator with
// coroutine-style simulated threads, in the spirit of the Proteus
// parallel-architecture simulator used by the paper.
//
// The engine owns a virtual clock measured in processor cycles. Simulated
// threads run on carriers: pooled iter.Pull coroutines, each running the
// bodies of the threads bound to it one after another (carrier.go). A
// thread takes a carrier at its first dispatch and gives it back when it
// exits. The engine loop (the hub) is the only caller that resumes a
// carrier and the only one that runs event callbacks, so exactly one
// simulated thread runs at any moment, and a parking or exiting thread
// yields straight back to the hub. A carrier's stack therefore holds
// only its own thread's frames and stays small: a goroutine's stack
// shrinks only during a collection. All simulation state is mutated by one
// coroutine at a time, and events fire in (time, sequence number) order,
// so a given program and seed always produce the same execution.
//
// The event queue (queue.go) is a timing wheel of wheelSize one-cycle
// slots in front of a binary heap. An event due fewer than wheelSize
// cycles after now goes to its cycle's slot, a list in (stream, seq)
// order; a later one goes to the heap. A new event's seq is the largest
// yet drawn, so it joins its slot at the tail, and the slot of the
// current cycle is the FIFO of everything due now. A two-level bitmap
// finds the next occupied slot, and the engine caches the earliest
// pending event, the earlier of the wheel's first and the heap's top, so
// scheduling and popping cost the same however many events are pending.
//
// Two kinds of sorted run keep the heap small where events are due far
// ahead. A run is a queue whose events are already in (time, seq) order,
// and only its head sits in the wheel or the heap; when the head fires
// or is cancelled, its successor enters the queue in its place:
//
//   - one per Proc, for the bookings (Exec wakeups and ExecAsync
//     completions) due past the wheel's span. A processor's next-free
//     cycle never decreases, so these times never do either.
//   - one arrival run, for the open-loop threads of
//     Machine.SpawnArrivals, whose caller supplies them in time order.
//     It reads each caller's schedule in place: only the head arrival
//     is a Thread and an Event.
//
// Each event's seq is drawn when it is scheduled (an arrival's when
// SpawnArrivals reserves its batch), so a run's seqs rise too: every run
// is (time, seq)-sorted, and the earliest pending event is the one a
// plain heap of every event would pop. An append that would break a
// run's order panics. A successor carries an older seq than the events
// scheduled since, so it is the one event that may join its slot ahead
// of others.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"compmig/internal/profile"
)

// Time is a point on the simulated clock, in cycles.
type Time = uint64

// Event is a scheduled callback. Events with equal times fire in the order
// they were scheduled.
//
// Event objects are pooled: once an event has fired (or been cancelled)
// the engine recycles it for a later Schedule/At call. Retain the handle
// only while the event is pending.
type Event struct {
	at  Time
	seq uint64
	fn  func()
	th  *Thread // wakeup event: hand control to th instead of calling fn
	eng *Engine

	// next links the event to its successor in a sorted run (see the
	// package comment), or to the next free event once released; nil for
	// a plain event and a run's tail.
	next *Event

	// slotNext and slotPrev link the event into its wheel slot's list
	// (see wheel); nil outside the wheel.
	slotNext, slotPrev *Event

	// stream and exec only matter on a clustered engine (Cluster). stream
	// is the merge-key stream the event was scheduled from (scheduling
	// ambient + 1, so slot 0 is setup/coordinator context); seq is then
	// drawn from the cluster-wide per-stream counter instead of the
	// engine-local one, which makes (at, stream, seq) a total order that
	// does not depend on how processors are partitioned into lanes. exec
	// is the ambient stream installed when the event dispatches (the
	// processor the event logically runs on). Both stay zero on a serial
	// engine, where ordering degenerates to the classic (at, seq).
	stream int32
	exec   int32

	// index is the event's heap slot, inWheel while it is in a wheel
	// slot, behindHead while it waits in a run behind the run's head, and
	// notQueued when it is fired, cancelled, or pooled.
	index int
}

// Engine is the simulation core: a clock, an event queue, and the set of
// live simulated threads.
type Engine struct {
	now  Time
	seq  uint64
	free *Event // fired and cancelled events, linked through next, for reuse by At

	// The ordered queue (queue.go): the wheel for events due within its
	// span, the heap for later ones, and top, the earliest pending event
	// of the two, nil when both are empty. Both retire and revive with
	// the lane.
	wheel *wheel
	heap  eventHeap
	top   *Event

	// arrivals is the open-loop arrival run (see the package comment);
	// each Proc holds its own run. A cluster lane uses neither: its
	// (at, stream, seq) key does not rise within a run.
	arrivals arrivalSource

	current  *Thread
	handoffs uint64 // carrier switches: the hub resuming a thread, or a thread parking or exiting

	liveThreads int       // spawned threads that have not exited, pending arrivals included
	live        []*Thread // the made ones, for deadlock reports; Thread.live indexes it
	nextTID     int
	threadPool  []*Thread  // exited threads, for reuse by Spawn
	carriers    []*carrier // free carriers, for the first dispatch of a thread

	// held are the layers' idle records kept on this lane (see Keep),
	// and revived those a revived lane brought that no layer has taken
	// yet; both retire with the lane.
	held, revived []Records

	rng    *PRNG
	tracer *Tracer

	// cluster and lane wire the engine into a sharded Cluster as one of
	// its lanes; both stay zero on the classic serial engine. curStream
	// is the ambient stream id of the event currently executing (-1 in
	// setup/coordinator context), set at every dispatch on both engines;
	// only a cluster lane's merge keys read it (see schedule).
	cluster   *Cluster
	lane      int
	curStream int32

	// limited/runLimit are set while the engine loop (pump) is draining
	// events, so the fast path cannot advance the clock past the limit.
	// stopped is set by Stop.
	limited  bool
	stopped  bool
	runLimit Time

	// MaxEvents bounds the number of events processed by Run as a runaway
	// guard; zero means no bound.
	MaxEvents uint64
	processed uint64

	// cross counts the cross-lane messages this engine originated as a
	// cluster lane.
	cross uint64
}

// NewEngine returns an engine whose clock starts at zero and whose PRNG is
// seeded with seed. It revives the most recently retired lane, if any
// (see Machine.Retire): its pools start with that lane's idle records,
// which changes no simulated result.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rng: NewPRNG(seed), curStream: -1}
	e.revive()
	if e.wheel == nil {
		e.wheel = new(wheel)
	}
	return e
}

// Now returns the current simulated time in cycles.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic PRNG.
func (e *Engine) Rand() *PRNG { return e.rng }

// countHandoffs adds the handoffs since start to the engine.handoffs
// profile section; Run and RunUntil defer it with their starting count.
func (e *Engine) countHandoffs(start uint64) { profile.EngineHandoffs.Add(e.handoffs - start) }

// Schedule queues fn to run when the clock reaches e.Now()+delay. It
// returns the event so the caller may cancel it.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	return e.At(e.now+delay, fn)
}

// At queues fn at absolute time at, which must not be in the past.
func (e *Engine) At(at Time, fn func()) *Event {
	return e.schedule(at, fn, nil, nil)
}

// ScheduleOn queues fn at e.Now()+delay to run as processor proc's event
// stream. On a clustered engine this is how a same-lane message delivery
// installs the destination's ambient stream before the callback runs; on
// a serial engine it is identical to Schedule.
func (e *Engine) ScheduleOn(delay Time, proc int, fn func()) *Event {
	ev := e.schedule(e.now+delay, fn, nil, nil)
	ev.exec = int32(proc)
	return ev
}

// scheduleWake queues a wakeup for th at absolute time at. Wakeups are
// tagged with the thread rather than wrapped in a closure so dispatchers
// can hand control over directly.
func (e *Engine) scheduleWake(at Time, th *Thread) *Event {
	return e.schedule(at, nil, th, nil)
}

// schedule queues an event at at. On the serial engine it goes behind
// run r's tail when r is given (a processor's run), r is live and at is
// past the wheel's span, and into the ordered queue otherwise, where it
// becomes r's new tail; a cluster lane uses no run.
func (e *Engine) schedule(at Time, fn func(), th *Thread, r *run) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	exec := e.curStream
	if th != nil {
		exec = th.stream
	}
	if cl := e.cluster; cl != nil {
		// Merge keys come from the scheduling stream's cluster-wide
		// counter, never from engine-local state, so two events at the
		// same cycle sort the same way at every shard count.
		stream := e.curStream + 1
		seq := cl.ctrs[stream]
		cl.ctrs[stream] = seq + 1
		ev := e.newEvent(at, seq, fn, th, stream, exec)
		e.push(ev)
		return ev
	}
	e.seq++
	ev := e.newEvent(at, e.seq, fn, th, 0, exec)
	if r != nil {
		if at-e.now >= wheelSize && r.live() {
			r.tail.link(ev) // touching neither the wheel nor the heap
			r.tail, r.seq = ev, ev.seq
			return ev
		}
		r.tail, r.seq = ev, ev.seq
	}
	e.push(ev)
	return ev
}

// newEvent takes an event from the free list, or allocates one.
func (e *Engine) newEvent(at Time, seq uint64, fn func(), th *Thread, stream, exec int32) *Event {
	ev := e.free
	if ev == nil {
		return &Event{at: at, seq: seq, fn: fn, th: th, stream: stream, exec: exec, eng: e, index: -1}
	}
	e.free, ev.next = ev.next, nil
	ev.at, ev.seq, ev.fn, ev.th = at, seq, fn, th
	ev.stream, ev.exec = stream, exec
	return ev
}

// release returns a fired or cancelled event to the free list.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.th = nil
	ev.next, e.free = e.free, ev
}

// Stop makes Run return after the current event completes.
//
//simvet:allow make engine-order pins that Stop cuts the same event sequence as RunUntil and MaxEvents
func (e *Engine) Stop() { e.stopped = true }

// DeadlockError reports that events ran dry while threads were still parked.
type DeadlockError struct {
	Now     Time
	Blocked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d: %d thread(s) blocked forever: %s",
		d.Now, len(d.Blocked), strings.Join(d.Blocked, ", "))
}

// deadlock reports the threads still parked on lanes when their events
// ran dry at now, sorted so the report is the same at every shard count.
func deadlock(now Time, lanes []*Engine) *DeadlockError {
	var blocked []string
	for _, e := range lanes {
		for _, th := range e.live {
			blocked = append(blocked, th.String())
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Now: now, Blocked: blocked}
}

// MaxEventsError reports that the engine processed Engine.MaxEvents events
// without the queue draining — the runaway guard tripped.
type MaxEventsError struct {
	Max uint64
	Now Time
}

func (m *MaxEventsError) Error() string {
	return fmt.Sprintf("sim: exceeded MaxEvents=%d at cycle %d", m.Max, m.Now)
}

// dispatch processes one popped event on the hub: a plain event runs its
// callback in place; a thread wakeup resumes the thread's carrier and
// returns once the thread parks or exits.
func (e *Engine) dispatch(ev *Event) {
	if ev.at < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = ev.at
	e.processed++
	e.curStream = ev.exec
	if th := ev.th; th != nil {
		e.release(ev)
		e.current = th
		e.resume(th)
		return
	}
	fn := ev.fn
	e.release(ev)
	fn()
}

// Run processes events until the queue is empty or Stop is called. It
// returns a *DeadlockError if the queue drains while simulated threads are
// still parked (they can never be woken again), a *MaxEventsError if the
// runaway guard trips, and nil otherwise.
func (e *Engine) Run() error {
	defer e.countHandoffs(e.handoffs)
	if err := e.pump(^Time(0)); err != nil {
		return err
	}
	if !e.stopped && e.liveThreads > 0 {
		return deadlock(e.now, []*Engine{e})
	}
	return nil
}

// RunUntil processes events with timestamps <= limit, then returns. Events
// beyond the limit stay queued; the clock is advanced to limit, unless a
// callback called Stop, which leaves it at the stopping event so that
// the next Run finds no pending event behind it.
//
//simvet:allow make engine-order pins that RunUntil cuts the same event sequence as Stop and MaxEvents
func (e *Engine) RunUntil(limit Time) error {
	defer e.countHandoffs(e.handoffs)
	if err := e.pump(limit); err != nil {
		return err
	}
	if !e.stopped && e.now < limit {
		e.now = limit
	}
	return nil
}

// pump is the engine loop: it dispatches events in order while their
// timestamps are <= limit, until the queue drains or Stop is called, and
// returns a *MaxEventsError if the runaway guard trips. It leaves parked
// threads parked, the free carriers in place and the clock where the
// last event put it: Run and RunUntil finish from there, and a cluster
// lane re-enters pump for its next synchronization window.
func (e *Engine) pump(limit Time) error {
	e.stopped = false
	e.limited, e.runLimit = true, limit
	defer func() { e.limited = false }()
	for e.top != nil && e.mayDispatch(e.top.at) {
		e.dispatch(e.pop())
	}
	if e.capped() {
		return &MaxEventsError{Max: e.MaxEvents, Now: e.now}
	}
	return nil
}

// mayDispatch reports whether the engine may process an event due at at:
// it is not stopped, the runaway guard has not tripped, and at is within
// the run limit pump set. pump and TryAdvance both ask it.
func (e *Engine) mayDispatch(at Time) bool {
	return !e.stopped && !e.capped() && !(e.limited && at > e.runLimit)
}

// capped reports whether the engine has processed MaxEvents events.
func (e *Engine) capped() bool { return e.MaxEvents != 0 && e.processed >= e.MaxEvents }

// TryAdvance reports whether the clock can jump straight to at without
// dispatching any other event, and performs the jump when it can. A
// running thread uses it to skip the schedule-pump round trip entirely
// when its own wakeup would be the very next event processed, and the
// shared-memory substrate's all-hit path uses it to complete a whole
// access synchronously: when it returns true, nothing else in the
// simulation can observe an intermediate point of [Now, at], so state
// mutations that would have happened inside that window may be applied
// immediately. The observable execution order is exactly the slow path's.
func (e *Engine) TryAdvance(at Time) bool {
	if !e.mayDispatch(at) || e.top != nil && e.top.at <= at {
		return false
	}
	e.now = at
	e.processed++
	return true
}
