package sim

import "fmt"

// Thread is a simulated lightweight thread (in the sense of a threads
// package, per the paper's footnote 1 — heavier than TAM threads). A
// Thread runs on a carrier, a pooled coroutine it holds from its first
// dispatch until its body returns, and the engine guarantees only one
// runs at a time, so thread bodies may freely touch shared simulation
// state.
//
// Thread objects are pooled: once a body returns, the engine recycles the
// thread for a later Spawn. Retain the handle only while the thread is
// live; an exited thread's object may already be running an unrelated
// body.
type Thread struct {
	eng     *Engine
	id      int
	name    string
	body    func(*Thread) // pending body, taken by the carrier when it starts
	carrier *carrier      // nil until the first dispatch and after exit
	where   string        // description of the blocking site, for deadlock reports
	live    int           // the thread's index in Engine.live while it is live

	// execProc is the processor an Exec parked on, which String reports
	// while where is execWhere.
	execProc int

	// stream is the event stream the thread's wakeups execute as: the
	// processor the thread is bound to on a clustered engine (set by
	// Proc.Spawn), or the spawner's ambient stream. Zero and unused on a
	// serial engine.
	stream int32

	// scratch is the future handed out by ScratchFuture.
	scratch Future
}

// execWhere is the park label of a thread blocked in Exec; String
// renders it with the processor, as exec(p3).
const execWhere = "exec"

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
	e.liveThreads++
	th := e.newThread(e.nextTID, name, body, stream)
	e.scheduleWake(e.now+delay, th)
	return th
}

// newThread takes a thread from the spawn pool, or allocates one, and
// registers it as live. The caller has counted it in liveThreads.
func (e *Engine) newThread(id int, name string, body func(*Thread), stream int32) *Thread {
	var th *Thread
	if n := len(e.threadPool); n > 0 {
		th = e.threadPool[n-1]
		e.threadPool[n-1] = nil
		e.threadPool = e.threadPool[:n-1]
		th.id, th.name, th.body = id, name, body
		th.where = ""
		th.stream = stream
	} else {
		th = &Thread{eng: e, id: id, name: name, body: body, stream: stream}
	}
	th.live = len(e.live)
	e.live = append(e.live, th)
	return th
}

// arrivalSource is the serial engine's open-loop arrival run
// (Machine.SpawnArrivals). Only its head is an Event, in the heap; the
// later arrivals stay in their callers' schedules, and each becomes a
// Thread and an Event only when it reaches the head.
type arrivalSource struct {
	head    *Event         // nil when no arrival is pending
	last    Time           // the time of the last pending arrival
	batches []arrivalBatch // SpawnArrivals calls in call order
	done    int            // batches before done have made every arrival
}

// arrivalBatch is one SpawnArrivals call. Its arrival i takes sequence
// number seq+i and thread id tid+i, reserved by the call.
type arrivalBatch struct {
	name    string
	arrival func(int) (Time, int, func(*Thread))
	n, next int // arrivals, and the index of the next one to make
	seq     uint64
	tid     int
}

// next makes the next pending arrival the run's head and returns its
// wakeup, keyed by its reserved sequence number, or returns nil when
// none is left.
func (s *arrivalSource) next(e *Engine) *Event {
	for ; s.done < len(s.batches); s.done++ {
		b := &s.batches[s.done]
		if b.next < b.n {
			i := b.next
			b.next++
			at, proc, body := b.arrival(i)
			th := e.newThread(b.tid+i, b.name, body, int32(proc))
			s.head = e.newEvent(at, b.seq+uint64(i), nil, th, 0, th.stream)
			return s.head
		}
		s.batches[s.done] = arrivalBatch{}
	}
	s.batches, s.done, s.head = s.batches[:0], 0, nil
	return nil
}

// exit retires the thread into the spawn pool, unbinds its carrier and
// yields it to the hub, which resumes it only to run the next thread
// bound to it. The thread must be the engine's current runner, and
// Engine.current is cleared rather than left pointing at a dead thread.
func (th *Thread) exit() {
	e := th.eng
	if e.current != th {
		panic("sim: thread exiting while not the current runner")
	}
	th.where = "exited"
	e.liveThreads--
	last := e.live[len(e.live)-1]
	e.live[th.live], last.live = last, th.live
	e.live = e.live[:len(e.live)-1]
	e.threadPool = append(e.threadPool, th)
	e.current = nil
	c := th.carrier
	c.th, th.carrier = nil, nil
	c.suspend(e)
}

// Now returns the current simulated time.
func (th *Thread) Now() Time { return th.eng.now }

func (th *Thread) String() string {
	if th.where == execWhere {
		return fmt.Sprintf("%s#%d@exec(p%d)", th.name, th.id, th.execProc)
	}
	return fmt.Sprintf("%s#%d@%s", th.name, th.id, th.where)
}

// scrub drops what a pooled thread still holds of its run when its lane
// retires: its engine, its name and its scratch future's value and
// waiter slots, whose storage it keeps.
func (th *Thread) scrub() {
	th.eng, th.name = nil, ""
	f := &th.scratch
	f.done, f.val = false, nil
	clear(f.q.waiters[:cap(f.q.waiters)])
	f.q.waiters = f.q.waiters[:0]
}

// ScratchFuture resets and returns a future owned by the thread, for
// rendezvous whose lifetimes never overlap (e.g. one demand miss at a
// time): each call invalidates the value of the previous one. Callers
// that can have several in flight must allocate their own futures.
func (th *Thread) ScratchFuture() *Future {
	th.scratch.Reset()
	return &th.scratch
}

// Park blocks the thread until some event resumes it, labelling the
// blocking site where for deadlock reports. The caller must have
// arranged for a wakeup, such as an Unpark. The thread's carrier yields
// to the hub, which runs every event up to the thread's wakeup and then
// resumes it: one switch out here and one back in.
func (th *Thread) Park(where string) {
	e := th.eng
	if e.current != th {
		panic("sim: park called from a thread that is not running")
	}
	th.where = where
	e.current = nil
	th.carrier.suspend(e)
	th.where = ""
}

// Unpark schedules th to resume at the current time. It must only be
// called for a thread that is parked (or about to park within the current
// event); the engine's single-runner discipline makes this race-free.
func (th *Thread) Unpark() {
	th.eng.scheduleWake(th.eng.now, th)
}

// Sleep advances the thread's virtual time by d cycles without occupying
// any processor (used for "think time" in the paper's workloads). When no
// other event fires at or before the wakeup time, the thread advances the
// clock itself and keeps running, skipping the park/resume handoff.
func (th *Thread) Sleep(d Time) {
	if d == 0 {
		return
	}
	if th.eng.TryAdvance(th.eng.now + d) {
		return
	}
	th.eng.scheduleWake(th.eng.now+d, th)
	th.Park("sleep")
}
