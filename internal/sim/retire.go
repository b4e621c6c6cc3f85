package sim

import "sync" //simvet:allow host-side stack of retired lanes shared by machines on harness workers; a retired lane holds only idle records, scrubbed of its run

// Records are the idle records a layer above the engine keeps for one
// lane: pooled objects that no event, thread or live structure of the
// run references any longer. Keep hands them to the layer and Retire
// carries them to the next run.
type Records interface {
	// Retire drops every reference the records hold into the finished
	// run, so a retired lane pins nothing of it, and returns how many
	// records there are.
	Retire() int
}

// idleLane is a retired lane: its engine's free events, thread pool,
// free carriers and emptied live-thread list, plus the records the
// layers kept on it. records counts them all. The live list is empty
// once a run quiesces; a thread a stopped run left parked is pinned by
// its own carrier anyway, whose goroutine never resumes.
type idleLane struct {
	free     *Event
	threads  []*Thread
	carriers []*carrier
	live     []*Thread
	held     []Records
	records  int
}

// retired is the stack of idle lanes. Machine.Retire pushes a finished
// run's lanes and NewEngine pops one, so a run's in-flight population —
// and the stacks its carriers have grown — outlives it, and a sweep of
// runs allocates only what one run needs beyond the last. The coroutine
// runtime lets any goroutine resume a carrier, provided calls never
// overlap and neither side has locked its OS thread (nothing here calls
// runtime.LockOSThread); the mutex orders the handover between machines
// on different harness workers. A lane's records are scrubbed when it
// retires and rebound when it revives, so the stack keeps nothing of a
// finished run but the records themselves.
var retired struct {
	sync.Mutex
	lanes []*idleLane
}

// Keep returns the *T records the engine's revived lane carries, or a
// new zero T when it carries none, and keeps them on the engine so they
// retire with it. The caller rebinds what it takes to its new run.
func Keep[T any, P interface {
	*T
	Records
}](e *Engine) P {
	var r P
	for i, h := range e.revived {
		if p, ok := h.(P); ok {
			r = p
			last := len(e.revived) - 1
			e.revived[i], e.revived[last] = e.revived[last], nil
			e.revived = e.revived[:last]
			break
		}
	}
	if r == nil {
		r = new(T)
	}
	e.held = append(e.held, r)
	return r
}

// Retire hands every lane of the machine to the retired stack once its
// run is over: nothing may schedule on the machine afterwards. Each
// engine keeps its clock and counters for the caller to read but starts
// its pools empty.
func (m *Machine) Retire() {
	for _, e := range m.lanes {
		e.retire()
	}
}

// retire scrubs the engine's idle records of the run and pushes them as
// one lane onto the retired stack. A lane with no records is dropped.
func (e *Engine) retire() {
	l := &idleLane{free: e.free, threads: e.threadPool, carriers: e.carriers, live: e.live[:0]}
	e.free, e.threadPool, e.carriers, e.live = nil, nil, nil, nil
	for ev := l.free; ev != nil; ev = ev.next {
		ev.eng = nil
		l.records++
	}
	for _, th := range l.threads {
		th.scrub()
	}
	l.records += len(l.threads) + len(l.carriers)
	l.held = append(e.held, e.revived...)
	e.held, e.revived = nil, nil
	for _, r := range l.held {
		l.records += r.Retire()
	}
	if l.records == 0 {
		return
	}
	retired.Lock()
	retired.lanes = append(retired.lanes, l)
	retired.Unlock()
}

// revive gives a new engine the most recently retired lane, if any,
// binding its events and threads to e. The layers' records wait in
// e.revived until Keep hands them out.
func (e *Engine) revive() {
	retired.Lock()
	n := len(retired.lanes)
	if n == 0 {
		retired.Unlock()
		return
	}
	l := retired.lanes[n-1]
	retired.lanes[n-1] = nil
	retired.lanes = retired.lanes[:n-1]
	retired.Unlock()
	e.free, e.threadPool, e.carriers, e.live, e.revived = l.free, l.threads, l.carriers, l.live, l.held
	for ev := e.free; ev != nil; ev = ev.next {
		ev.eng = e
	}
	for _, th := range e.threadPool {
		th.eng = e
	}
}

// RetiredRecords returns the number of idle records on the retired
// stack: what the next engines to start will revive instead of
// allocating.
//
//simvet:allow the cross-run allocation pins (make alloc-pins) compare a run's allocations with the records it retired
func RetiredRecords() int {
	retired.Lock()
	defer retired.Unlock()
	n := 0
	for _, l := range retired.lanes {
		n += l.records
	}
	return n
}
