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
// On the serial engine the event queue is a heap of sorted runs. A run
// is a queue whose events are already in (time, seq) order, and only its
// head sits in the heap; appending behind the head touches no heap, and
// when the head fires its successor takes its slot at the root. There
// are three kinds of run:
//
//   - one per Proc, for the events whose time comes from the processor's
//     booking (Exec wakeups and ExecAsync completions). A processor's
//     next-free cycle never decreases, so these times never do either.
//   - one zero-delay run, for events scheduled at the current time
//     (Unpark, Yield, Spawn and Schedule with no delay, At(Now())). Its
//     times never decrease because the clock does not.
//   - one arrival run, for the open-loop threads of
//     Machine.SpawnArrivals, whose caller supplies them in time order.
//     It reads each caller's schedule in place: only the head arrival
//     is a Thread and an Event.
//
// Each event's seq is drawn when it is scheduled (an arrival's when
// SpawnArrivals reserves its batch), so a run's seqs rise too. Every
// run is therefore (time, seq)-sorted, the heap orders run heads by the
// same key, and the heap top is the earliest pending event exactly as it
// would be with every event in the heap: the order is the plain heap's
// by construction. An append that would break a run's order panics.
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
	// a plain heap event and a run's tail.
	next *Event

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

	// index is the event's heap slot, behindHead while it waits in a run
	// behind the run's head, and -1 when it is not queued (fired,
	// cancelled, or pooled).
	index int
}

// behindHead is Event.index for an event queued in a run behind its head.
const behindHead = -2

// Cancel removes a pending event in the heap so it never fires: a plain
// event, or a run's head, which hands its slot to its successor. An
// event queued behind a run's head cannot be cancelled, and Cancel
// panics on one: a timer that no processor booked, set for a later cycle
// (Schedule with a delay, or At), is always a plain heap event. Cancelling
// an event that has already fired or been cancelled is a no-op; do not
// call Cancel on a handle kept across the event's firing, because the
// engine may have recycled the object for an unrelated event by then.
func (ev *Event) Cancel() {
	switch {
	case ev.index >= 0:
		e := ev.eng
		if next := e.successor(ev); next != nil {
			e.heap.replace(ev.index, next)
		} else {
			e.heap.remove(ev.index)
		}
		e.release(ev)
	case ev.index == behindHead:
		panic(fmt.Sprintf("sim: cancelling event (%d, %d) queued behind a sorted run's head", ev.at, ev.seq))
	}
}

// run is a queue of events already in (at, seq) order, linked through
// Event.next. Only its head sits in the heap. The run records just its
// tail, and seq, the tail's seq when it was appended: once the tail has
// left the queue (index -1) or its object has been recycled for a later
// event (a new seq), the run is empty, so popping a run's last event
// needs no pointer back to the run.
type run struct {
	tail *Event
	seq  uint64
}

// live reports whether r's tail is still queued, so that a new event
// goes behind it rather than into the heap as the run's head.
func (r *run) live() bool {
	t := r.tail
	return t != nil && t.seq == r.seq && t.index != -1
}

// link queues ev behind t, the tail of a run. An event that sorts before
// t panics, because the heap would then no longer see the earliest event.
func (t *Event) link(ev *Event) {
	if ev.at < t.at || ev.at == t.at && ev.seq < t.seq {
		panic(fmt.Sprintf("sim: event (%d, %d) appended behind (%d, %d) breaks a sorted run",
			ev.at, ev.seq, t.at, t.seq))
	}
	t.next = ev
	ev.index = behindHead
}

// successor unlinks ev, a heap event about to leave the heap, from its
// run and returns the run's next event, which takes ev's heap slot.
// After the arrival run's head it materializes the next arrival. It
// returns nil when ev is a plain heap event or the last event of its run.
func (e *Engine) successor(ev *Event) *Event {
	next := ev.next
	ev.next = nil
	if next == nil && ev == e.arrivals.head {
		next = e.arrivals.next(e)
	}
	return next
}

// pop removes and returns the earliest pending event: the heap top. When
// it heads a run, the run's next event takes its slot at the root with
// one sift down instead of a pop and a push.
func (e *Engine) pop() *Event {
	ev := e.heap[0]
	if ev.next != nil || e.arrivals.head != nil {
		if next := e.successor(ev); next != nil {
			e.heap.replace(0, next)
			return ev
		}
	}
	return e.heap.pop()
}

// Engine is the simulation core: a clock, an event queue, and the set of
// live simulated threads.
type Engine struct {
	now  Time
	seq  uint64
	heap eventHeap
	free *Event // fired and cancelled events, linked through next, for reuse by At

	// zero is the zero-delay run and arrivals the open-loop arrival run
	// (see the package comment); each Proc holds its own run. A cluster
	// lane uses none of them: its (at, stream, seq) key does not rise
	// within a run.
	zero     run
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

// schedule queues an event at at. On the serial engine it goes to run r
// when r is given (a processor's run), to the zero-delay run when at is
// now, and to the heap otherwise; on a cluster lane it always goes to the
// heap.
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
		e.heap.push(ev)
		return ev
	}
	e.seq++
	ev := e.newEvent(at, e.seq, fn, th, 0, exec)
	if r == nil {
		if at != e.now {
			e.heap.push(ev)
			return ev
		}
		r = &e.zero
	}
	// Behind the run's tail, touching no heap, or as the head of an
	// empty run.
	if r.live() {
		r.tail.link(ev)
	} else {
		e.heap.push(ev)
	}
	r.tail, r.seq = ev, ev.seq
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
// without the heap draining — the runaway guard tripped.
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
		panic("sim: event heap time went backwards")
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

// Run processes events until the heap is empty or Stop is called. It
// returns a *DeadlockError if the heap drains while simulated threads are
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
// beyond the limit stay queued; the clock is advanced to limit.
//
//simvet:allow make engine-order pins that RunUntil cuts the same event sequence as Stop and MaxEvents
func (e *Engine) RunUntil(limit Time) error {
	defer e.countHandoffs(e.handoffs)
	if err := e.pump(limit); err != nil {
		return err
	}
	if e.now < limit {
		e.now = limit
	}
	return nil
}

// pump is the engine loop: it dispatches events in order while their
// timestamps are <= limit, until the heap drains or Stop is called, and
// returns a *MaxEventsError if the runaway guard trips. It leaves parked
// threads parked, the free carriers in place and the clock where the
// last event put it: Run and RunUntil finish from there, and a cluster
// lane re-enters pump for its next synchronization window.
func (e *Engine) pump(limit Time) error {
	e.stopped = false
	e.limited, e.runLimit = true, limit
	defer func() { e.limited = false }()
	for len(e.heap) > 0 && e.mayDispatch(e.heap[0].at) {
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
	if !e.mayDispatch(at) || len(e.heap) > 0 && e.heap[0].at <= at {
		return false
	}
	e.now = at
	e.processed++
	return true
}

// eventHeap is a binary min-heap ordered by (at, stream, seq) — stream
// is zero everywhere on a serial engine, so its order there is the
// classic (at, seq). On the serial engine it holds the heads of the
// sorted runs plus every event due after now that no processor booked
// (Sleep, Schedule with a delay); a cluster lane keeps every
// event in it. It is hand-rolled rather than built on container/heap:
// the sift loops below run for every event the simulator processes, and
// the interface-based version's indirect Less/Swap calls were a
// measurable share of total run time. The runs keep it shallow: at full
// windows (one seed-1 pass of each bench/ workload) the mean depth at a
// push fell from 2,473 to 8.3 on kv-open, whose open-loop arrivals and
// processor queues had all sat in the heap, and from 1,353 to 16.9 on
// faults-durable; the closed loops were shallow already (mp-closed 162
// to 129, sm-closed 37 to 36).
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].stream != h[j].stream {
		return h[i].stream < h[j].stream
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index, true)
}

func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old[0].index = 0
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*h = old[:n]
	if n > 1 {
		h.down(0)
	}
	return ev
}

// replace puts ev in slot i in place of an event whose key is no larger,
// preserving heap order.
func (h eventHeap) replace(i int, ev *Event) {
	h[i].index = -1
	h[i] = ev
	ev.index = i
	h.down(i)
}

// remove deletes the event at index i, preserving heap order.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old[i], old[n] = old[n], old[i]
		old[i].index = i
	}
	old[n].index = -1
	old[n] = nil
	*h = old[:n]
	if i != n {
		if !h.down(i) {
			h.up(i, false)
		}
	}
}

// up sifts the event at i toward the root. A push (pushed) is counted in
// the engine.heap_pushes profile section here rather than in push, which
// keeps push small enough to inline.
func (h eventHeap) up(i int, pushed bool) {
	if pushed && profile.Enabled() {
		profile.HeapOps.Add(1)
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].index = i
		h[parent].index = parent
		i = parent
	}
}

// down sifts the event at i toward the leaves, reporting whether it moved.
func (h eventHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		next := left
		if right := left + 1; right < n && h.less(right, left) {
			next = right
		}
		if !h.less(next, i) {
			break
		}
		h[i], h[next] = h[next], h[i]
		h[i].index = i
		h[next].index = next
		i = next
	}
	return i > start
}
