// Package sim implements a deterministic discrete-event simulator with
// coroutine-style simulated threads, in the spirit of the Proteus
// parallel-architecture simulator used by the paper.
//
// The engine owns a virtual clock measured in processor cycles. Simulated
// threads are real goroutines, but exactly one of them runs at any moment.
// Control is passed by direct handoff: the goroutine that pops an event
// dispatches it in place, and only when the event is another thread's
// wakeup does control move (over that thread's resume channel). A waiting
// thread therefore drives the event loop itself — it pops and runs
// protocol callbacks inline and parts with its host goroutine only to run
// a different simulated thread. All simulation state is still mutated by
// at most one goroutine at a time, and the event heap is ordered by
// (time, sequence number), so a given program and seed always produce the
// same execution regardless of which goroutine happens to be driving.
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

	index int // heap index, -1 when not queued (fired, cancelled, or pooled)
}

// Cancel removes a pending event from the heap so it never fires.
// Cancelling an event that has already fired or been cancelled is a no-op;
// do not call Cancel on a handle kept across the event's firing, because
// the engine may have recycled the object for an unrelated event by then.
func (ev *Event) Cancel() {
	if ev.index < 0 {
		return
	}
	ev.eng.heap.remove(ev.index)
	ev.eng.release(ev)
}

// Engine is the simulation core: a clock, an event heap, and the set of
// live simulated threads.
type Engine struct {
	now  Time
	seq  uint64
	heap eventHeap
	pool []*Event // free list of fired/cancelled events, for reuse by At

	current  *Thread
	handoff  chan struct{} // a driving thread signals here to return control to Run
	handoffs uint64        // goroutine switches: sends on a resume or handoff channel

	liveThreads int
	allThreads  map[*Thread]struct{}
	nextTID     int
	threadPool  []*Thread // exited threads (goroutine parked in loop), for reuse by Spawn

	rng     *PRNG
	stopped bool
	tracer  *Tracer

	// cluster and lane wire the engine into a sharded Cluster as one of
	// its lanes; both stay zero on the classic serial engine. curStream
	// is the ambient stream id of the event currently executing (-1 in
	// setup/coordinator context); it feeds the cluster-wide merge keys.
	cluster   *Cluster
	lane      int
	curStream int32

	// limited/runLimit are set while RunUntil is draining events, so
	// neither a driving thread nor the fast path can advance the clock
	// past the limit.
	limited  bool
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
// seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		handoff:    make(chan struct{}),
		allThreads: make(map[*Thread]struct{}),
		rng:        NewPRNG(seed),
	}
}

// Now returns the current simulated time in cycles.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic PRNG.
func (e *Engine) Rand() *PRNG { return e.rng }

// Handoffs returns the number of times control has passed from one
// goroutine to another on this engine: the engine or a driving thread
// resuming a simulated thread, or a driving thread returning control to
// the engine loop. It depends only on the event sequence, so a given
// program and seed always report the same count.
func (e *Engine) Handoffs() uint64 { return e.handoffs }

// countHandoffs adds the handoffs since start to the engine.handoffs
// profile section; Run and RunUntil defer it with their starting count.
func (e *Engine) countHandoffs(start uint64) { profile.EngineHandoffs.Add(e.handoffs - start) }

// Live returns the number of simulated threads that have been spawned and
// have not yet exited.
func (e *Engine) Live() int { return e.liveThreads }

// Schedule queues fn to run when the clock reaches e.Now()+delay. It
// returns the event so the caller may cancel it.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	return e.At(e.now+delay, fn)
}

// At queues fn at absolute time at, which must not be in the past.
func (e *Engine) At(at Time, fn func()) *Event {
	return e.schedule(at, fn, nil)
}

// ScheduleOn queues fn at e.Now()+delay to run as processor proc's event
// stream. On a clustered engine this is how a same-lane message delivery
// installs the destination's ambient stream before the callback runs; on
// a serial engine it is identical to Schedule.
func (e *Engine) ScheduleOn(delay Time, proc int, fn func()) *Event {
	ev := e.schedule(e.now+delay, fn, nil)
	ev.exec = int32(proc)
	return ev
}

// scheduleWake queues a wakeup for th at absolute time at. Wakeups are
// tagged with the thread rather than wrapped in a closure so dispatchers
// can hand control over directly.
func (e *Engine) scheduleWake(at Time, th *Thread) *Event {
	return e.schedule(at, nil, th)
}

func (e *Engine) schedule(at Time, fn func(), th *Thread) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	if profile.Enabled() {
		profile.HeapOps.Add(1)
	}
	var stream int32
	var seq uint64
	exec := e.curStream
	if th != nil {
		exec = th.stream
	}
	if cl := e.cluster; cl != nil {
		// Merge keys come from the scheduling stream's cluster-wide
		// counter, never from engine-local state, so two events at the
		// same cycle sort the same way at every shard count.
		stream = e.curStream + 1
		seq = cl.ctrs[stream]
		cl.ctrs[stream] = seq + 1
	} else {
		e.seq++
		seq = e.seq
	}
	var ev *Event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		ev.at, ev.seq, ev.fn, ev.th = at, seq, fn, th
		ev.stream, ev.exec = stream, exec
	} else {
		ev = &Event{at: at, seq: seq, fn: fn, th: th, stream: stream, exec: exec, eng: e, index: -1}
	}
	e.heap.push(ev)
	return ev
}

// release returns a fired or cancelled event to the free list.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.th = nil
	e.pool = append(e.pool, ev)
}

// Stop makes Run return after the current event completes.
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

// MaxEventsError reports that the engine processed Engine.MaxEvents events
// without the heap draining — the runaway guard tripped.
type MaxEventsError struct {
	Max uint64
	Now Time
}

func (m *MaxEventsError) Error() string {
	return fmt.Sprintf("sim: exceeded MaxEvents=%d at cycle %d", m.Max, m.Now)
}

// dispatch processes one popped event in the caller's goroutine: a plain
// event runs its callback in place; a thread wakeup hands control to the
// thread and blocks until some driver returns control over e.handoff.
func (e *Engine) dispatch(ev *Event) {
	if ev.at < e.now {
		panic("sim: event heap time went backwards")
	}
	e.now = ev.at
	e.processed++
	if e.cluster != nil {
		e.curStream = ev.exec
	}
	if th := ev.th; th != nil {
		e.release(ev)
		e.current = th
		e.handoffs++
		th.resume <- struct{}{}
		<-e.handoff
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
	defer e.drainThreadPool()
	defer e.countHandoffs(e.handoffs)
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		e.dispatch(e.heap.pop())
		if e.MaxEvents != 0 && e.processed >= e.MaxEvents {
			return &MaxEventsError{Max: e.MaxEvents, Now: e.now}
		}
	}
	if !e.stopped && e.liveThreads > 0 {
		var blocked []string
		for th := range e.allThreads {
			blocked = append(blocked, th.String())
		}
		sort.Strings(blocked)
		return &DeadlockError{Now: e.now, Blocked: blocked}
	}
	return nil
}

// RunUntil processes events with timestamps <= limit, then returns. Events
// beyond the limit stay queued; the clock is advanced to limit.
func (e *Engine) RunUntil(limit Time) error {
	defer e.drainThreadPool()
	defer e.countHandoffs(e.handoffs)
	e.stopped = false
	e.limited, e.runLimit = true, limit
	defer func() { e.limited = false }()
	for len(e.heap) > 0 && !e.stopped && e.heap[0].at <= limit {
		e.dispatch(e.heap.pop())
		if e.MaxEvents != 0 && e.processed >= e.MaxEvents {
			return &MaxEventsError{Max: e.MaxEvents, Now: e.now}
		}
	}
	if e.now < limit {
		e.now = limit
	}
	return nil
}

// runWindow processes events with timestamps <= limit and returns,
// leaving parked threads parked and the thread pool intact: unlike
// RunUntil it neither drains the pool nor clamps the clock forward,
// because the lane will be re-entered for the next synchronization
// window. Only Cluster.Run calls it.
func (e *Engine) runWindow(limit Time) error {
	e.stopped = false
	e.limited, e.runLimit = true, limit
	defer func() { e.limited = false }()
	for len(e.heap) > 0 && !e.stopped && e.heap[0].at <= limit {
		e.dispatch(e.heap.pop())
		if e.MaxEvents != 0 && e.processed >= e.MaxEvents {
			return &MaxEventsError{Max: e.MaxEvents, Now: e.now}
		}
	}
	return nil
}

// fastAdvance reports whether the clock can jump straight to at without
// dispatching any other event, and performs the jump when it can. A
// running thread uses this to skip the schedule-pump round trip entirely
// when its own wakeup would be the very next event processed: the
// observable execution order is exactly the slow path's.
func (e *Engine) fastAdvance(at Time) bool {
	if e.stopped || (e.MaxEvents != 0 && e.processed >= e.MaxEvents) {
		return false
	}
	if e.limited && at > e.runLimit {
		return false
	}
	if len(e.heap) > 0 && e.heap[0].at <= at {
		return false
	}
	e.now = at
	e.processed++
	return true
}

// TryAdvance reports whether the clock can jump straight to at without
// dispatching any other event, and performs the jump when it can. It is
// the hook inline fast paths (e.g. the shared-memory substrate's
// home-local miss path) use to complete a whole future transaction
// synchronously: when it returns true, nothing else in the simulation can
// observe an intermediate point of [Now, at], so state mutations that
// would have happened inside that window may be applied immediately.
func (e *Engine) TryAdvance(at Time) bool { return e.fastAdvance(at) }

// drainThreadPool terminates the goroutines of pooled (exited) threads.
// Run calls it on exit so an abandoned engine does not pin parked
// goroutines; a pooled thread has no pending body, so the bare wakeup
// makes its loop return without a handoff.
func (e *Engine) drainThreadPool() {
	for i, th := range e.threadPool {
		th.resume <- struct{}{}
		e.threadPool[i] = nil
	}
	e.threadPool = e.threadPool[:0]
}

// eventHeap is a binary min-heap ordered by (at, stream, seq) — stream
// is zero everywhere on a serial engine, so its order there is the
// classic (at, seq). It is hand-rolled
// rather than built on container/heap: the sift loops below run for every
// event the simulator processes, and the interface-based version's
// indirect Less/Swap calls were a measurable share of total run time.
// (An inline-key 4-ary layout was measured and lost: the heap stays
// shallow enough that wider fan-out doesn't pay for the extra copies.)
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
	h.up(ev.index)
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
			h.up(i)
		}
	}
}

func (h eventHeap) up(i int) {
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
