package sim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// orderRec is one dispatch seen by the exact-order property test: the
// clock, the dispatched event's seq (0 for a fast-path advance, which
// dispatches no event), and the id of the logical action it completes.
// Ids are numbered in program order, so two runs of the same mix that
// execute the same logical order record the same ids.
type orderRec struct {
	at  Time
	seq uint64
	id  int
}

// mixThread is the test's view of one running thread body.
type mixThread struct {
	th     *Thread
	parked bool
	epoch  int    // park episode, so a stale waker leaves a later park alone
	wake   uint64 // seq of the Unpark that ended the current park
}

// cancellable is a Schedule/At handle the mix may still cancel.
type cancellable struct {
	ev   *Event
	seq  uint64
	done *bool // set when the event fires or is cancelled
}

// orderMix drives a seeded random mix of every way to queue an event on
// a serial engine (Schedule and At at now and later, Exec, ExecAsync,
// Spawn, Proc.Spawn, SpawnArrivals, Unpark, Yield, Sleep, Park and Cancel)
// over processors with heterogeneous speeds and down windows, and
// records every dispatch.
type orderMix struct {
	e      *Engine
	mach   *Machine
	procs  []Proc
	rng    *PRNG
	budget int // actions left to start

	recs    []orderRec
	ids     int
	sched   map[uint64]bool // seq of every queued event -> cancelled
	fired   map[uint64]int
	pending []cancellable
	parked  []*mixThread
	arrival Time // time of the last SpawnArrivals arrival

	cancels, sorted int // coverage: cancels made, SpawnArrivals arrivals

	stopAfter int // a callback calls Stop once this many dispatches are recorded; -1 never
	stoppedAt int
}

func newOrderMix(seed uint64) *orderMix {
	e := NewEngine(seed)
	mach := NewMachine(e, 4)
	mach.Proc(1).SetSpeed(3, 2)
	mach.Proc(2).SetSpeed(5, 2)
	mach.Proc(2).AddDownWindow(500, 900)
	mach.Proc(3).AddDownWindow(200, 260)
	mach.Proc(3).AddDownWindow(1500, 2100)
	m := &orderMix{
		e: e, mach: mach, procs: mach.procs, rng: NewPRNG(seed ^ 0x5eed), budget: 400,
		sched: make(map[uint64]bool), fired: make(map[uint64]int), stopAfter: -1,
	}
	for i := 0; i < 3; i++ {
		m.at(Time(m.rng.Intn(3)) * 40) // at setup: two of three due at now
	}
	for i := 0; i < 6; i++ {
		m.spawn(Time(m.rng.Intn(4))*25, 8)
	}
	for i := 0; i < 4; i++ {
		m.spawnArrivals(6)
	}
	return m
}

func (m *orderMix) id() int { m.ids++; return m.ids }

// rec records a dispatch at the current time; seq 0 is a fast path.
func (m *orderMix) rec(seq uint64, id int) {
	m.recs = append(m.recs, orderRec{at: m.e.now, seq: seq, id: id})
	if seq != 0 {
		m.fired[seq]++
	}
}

// queued registers the seq of an event the mix just caused to be queued.
func (m *orderMix) queued(seq uint64) uint64 {
	m.sched[seq] = false
	return seq
}

// blocked records the return of a blocking call made when the engine's
// seq counter stood at before: a changed counter means the call queued
// its own wakeup, with seq before+1, and that wakeup was dispatched.
func (m *orderMix) blocked(before uint64, id int) {
	var seq uint64
	if m.e.seq != before {
		seq = m.queued(before + 1)
	}
	m.rec(seq, id)
}

func (m *orderMix) proc() *Proc { return &m.procs[m.rng.Intn(len(m.procs))] }

// callback is a plain event body: it records its dispatch, may stop the
// run, and may start one more non-blocking action.
func (m *orderMix) callback(seq *uint64, id int, done *bool) func() {
	return func() {
		if done != nil {
			*done = true
		}
		m.rec(*seq, id)
		if m.stopAfter >= 0 && len(m.recs) >= m.stopAfter {
			m.e.Stop()
			m.stopAfter, m.stoppedAt = -1, len(m.recs)
		}
		if m.rng.Intn(2) == 0 {
			m.step(nil)
		}
	}
}

// at queues a cancellable callback delay cycles from now, through At or
// Schedule.
func (m *orderMix) at(delay Time) {
	id, seq, done := m.id(), new(uint64), new(bool)
	var ev *Event
	if m.rng.Intn(2) == 0 {
		ev = m.e.At(m.e.now+delay, m.callback(seq, id, done))
	} else {
		ev = m.e.Schedule(delay, m.callback(seq, id, done))
	}
	*seq = m.queued(ev.seq)
	m.pending = append(m.pending, cancellable{ev: ev, seq: ev.seq, done: done})
}

func (m *orderMix) spawn(delay Time, steps int) {
	id, seq := m.id(), new(uint64)
	body := func(th *Thread) {
		m.rec(*seq, id)
		m.actor(th, steps)
	}
	if m.rng.Intn(2) == 0 {
		m.e.Spawn("mix", delay, body)
	} else {
		m.proc().Spawn("mix", delay, body)
	}
	*seq = m.queued(m.e.seq)
}

// spawnArrivals queues a batch of one to three arrivals on random
// processors, each running steps actions. A batch reserves the seqs
// after the engine's counter, one per arrival in order.
func (m *orderMix) spawnArrivals(steps int) {
	n := 1 + m.rng.Intn(3)
	ats, procs, bodies := make([]Time, n), make([]int, n), make([]func(*Thread), n)
	for i := range ats {
		at := m.arrival
		if at < m.e.now {
			at = m.e.now
		}
		at += Time(m.rng.Intn(3)) * 70
		m.arrival = at
		id, seq := m.id(), m.queued(m.e.seq+1+uint64(i))
		ats[i], procs[i] = at, m.proc().ID()
		bodies[i] = func(th *Thread) {
			m.rec(seq, id)
			m.actor(th, steps)
		}
	}
	m.mach.SpawnArrivals("arrival", n, func(i int) (Time, int, func(*Thread)) { return ats[i], procs[i], bodies[i] })
	m.sorted += n
}

func (m *orderMix) actor(th *Thread, steps int) {
	mt := &mixThread{th: th}
	for i := 0; i < steps && m.budget > 0; i++ {
		m.step(mt)
	}
}

// step starts one random action: any action from a thread, only the
// non-blocking ones from a callback (mt nil).
func (m *orderMix) step(mt *mixThread) {
	if m.budget <= 0 {
		return
	}
	m.budget--
	n := 8
	if mt != nil {
		n = 13
	}
	switch m.rng.Intn(n) {
	case 0:
		m.at(0)
	case 1:
		m.at(1 + Time(m.rng.Intn(120)))
	case 2:
		id, seq := m.id(), new(uint64)
		m.proc().ExecAsync(Time(m.rng.Intn(40)), m.callback(seq, id, nil))
		*seq = m.queued(m.e.seq)
	case 3:
		m.spawn(Time(m.rng.Intn(2))*Time(m.rng.Intn(90)), 1+m.rng.Intn(5))
	case 4:
		m.spawnArrivals(1 + m.rng.Intn(4))
	case 5:
		m.unparkOne()
	case 6, 7:
		m.cancelOne()
	case 8, 9:
		id, before := m.id(), m.e.seq
		mt.th.Exec(m.proc(), 1+Time(m.rng.Intn(60)))
		m.blocked(before, id)
	case 10:
		id, before := m.id(), m.e.seq
		mt.th.Sleep(1 + Time(m.rng.Intn(100)))
		m.blocked(before, id)
	case 11:
		id, before := m.id(), m.e.seq
		yield(mt.th)
		m.blocked(before, id)
	case 12:
		m.park(mt)
	}
}

// park blocks mt's thread until another action unparks it; a waker
// callback guarantees that happens even if nothing else does.
func (m *orderMix) park(mt *mixThread) {
	id := m.id()
	mt.parked = true
	mt.epoch++
	epoch := mt.epoch
	m.parked = append(m.parked, mt)
	wid, wseq := m.id(), new(uint64)
	ev := m.e.Schedule(Time(m.rng.Intn(150)), func() {
		m.rec(*wseq, wid)
		if mt.parked && mt.epoch == epoch {
			m.unpark(mt)
		}
	})
	*wseq = m.queued(ev.seq)
	mt.th.Park("mix")
	m.rec(mt.wake, id)
}

func (m *orderMix) unpark(mt *mixThread) {
	for i, p := range m.parked {
		if p == mt {
			m.parked = append(m.parked[:i], m.parked[i+1:]...)
			break
		}
	}
	mt.parked = false
	mt.th.Unpark()
	mt.wake = m.queued(m.e.seq)
}

func (m *orderMix) unparkOne() {
	if len(m.parked) > 0 {
		m.unpark(m.parked[m.rng.Intn(len(m.parked))])
	}
}

// cancelOne cancels a random callback that has neither fired nor been
// cancelled yet.
func (m *orderMix) cancelOne() {
	for len(m.pending) > 0 {
		i := m.rng.Intn(len(m.pending))
		c := m.pending[i]
		m.pending = append(m.pending[:i], m.pending[i+1:]...)
		if *c.done {
			continue
		}
		*c.done = true
		c.ev.Cancel()
		m.sched[c.seq] = true
		m.cancels++
		return
	}
}

// sameOrder reports whether two runs dispatched the same logical actions
// at the same times, in the same order.
func sameOrder(a, b []orderRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].at != b[i].at || a[i].id != b[i].id {
			return false
		}
	}
	return true
}

// TestEngineExactOrder is the property behind the heap of sorted runs:
// over seeded random mixes, the dispatch sequence strictly increases in
// (at, seq), every queued event that is not cancelled fires exactly
// once and no cancelled one fires, and RunUntil, Stop and MaxEvents cut
// the same sequence where they always have.
func TestEngineExactOrder(t *testing.T) {
	var cancels, sorted int
	for seed := uint64(1); seed <= 24; seed++ {
		full := newOrderMix(seed)
		if err := full.e.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cancels += full.cancels
		sorted += full.sorted
		var last orderRec
		for i, r := range full.recs {
			if r.at < last.at {
				t.Fatalf("seed %d: dispatch %d at %d after %d", seed, i, r.at, last.at)
			}
			if r.seq == 0 {
				continue
			}
			if r.at == last.at && r.seq <= last.seq {
				t.Fatalf("seed %d: dispatch %d is (%d, %d) after (%d, %d)", seed, i, r.at, r.seq, last.at, last.seq)
			}
			last = r
		}
		for seq, cancelled := range full.sched {
			switch n := full.fired[seq]; {
			case cancelled && n != 0:
				t.Fatalf("seed %d: cancelled event %d fired %d time(s)", seed, seq, n)
			case !cancelled && n != 1:
				t.Fatalf("seed %d: event %d fired %d time(s), want 1", seed, seq, n)
			}
		}
		for seq := range full.fired {
			if _, ok := full.sched[seq]; !ok {
				t.Fatalf("seed %d: unknown event %d fired", seed, seq)
			}
		}
		if len(full.e.heap) != 0 || full.e.liveThreads != 0 {
			t.Fatalf("seed %d: %d heap entries and %d live threads after Run", seed, len(full.e.heap), full.e.liveThreads)
		}

		// RunUntil in uneven chunks: nothing past the limit runs, the
		// clock stops at the limit, and the sequence is unchanged.
		chunked := newOrderMix(seed)
		for limit := Time(90); len(chunked.e.heap) > 0; limit += 137 {
			if err := chunked.e.RunUntil(limit); err != nil {
				t.Fatalf("seed %d: RunUntil(%d): %v", seed, limit, err)
			}
			if n := len(chunked.recs); n > 0 && chunked.recs[n-1].at > limit {
				t.Fatalf("seed %d: RunUntil(%d) dispatched at %d", seed, limit, chunked.recs[n-1].at)
			}
			if chunked.e.Now() != limit {
				t.Fatalf("seed %d: clock %d after RunUntil(%d)", seed, chunked.e.Now(), limit)
			}
		}
		if err := chunked.e.Run(); err != nil {
			t.Fatalf("seed %d: Run after RunUntil: %v", seed, err)
		}
		if !sameOrder(full.recs, chunked.recs) {
			t.Fatalf("seed %d: RunUntil chunks changed the dispatch order", seed)
		}

		// Stop from a callback halfway: Run returns at once, and a second
		// Run finishes the same sequence.
		stopped := newOrderMix(seed)
		stopped.stopAfter = len(full.recs) / 2
		if err := stopped.e.Run(); err != nil {
			t.Fatalf("seed %d: stopped Run: %v", seed, err)
		}
		if stopped.stoppedAt == 0 || len(stopped.recs) != stopped.stoppedAt {
			t.Fatalf("seed %d: Stop at dispatch %d, Run returned after %d", seed, stopped.stoppedAt, len(stopped.recs))
		}
		if err := stopped.e.Run(); err != nil {
			t.Fatalf("seed %d: Run after Stop: %v", seed, err)
		}
		if !sameOrder(full.recs, stopped.recs) {
			t.Fatalf("seed %d: Stop and resume changed the dispatch order", seed)
		}

		// MaxEvents: the guard trips after exactly that many dispatches,
		// a prefix of the full sequence.
		capped := newOrderMix(seed)
		capped.e.MaxEvents = uint64(len(full.recs) / 3)
		var me *MaxEventsError
		if err := capped.e.Run(); !errors.As(err, &me) {
			t.Fatalf("seed %d: got %v, want *MaxEventsError", seed, err)
		}
		if uint64(len(capped.recs)) != capped.e.MaxEvents || !sameOrder(full.recs[:len(capped.recs)], capped.recs) {
			t.Fatalf("seed %d: MaxEvents=%d stopped after %d dispatches, or off the full sequence",
				seed, capped.e.MaxEvents, len(capped.recs))
		}
	}
	if cancels == 0 || sorted == 0 {
		t.Fatalf("mixes made %d cancels and %d SpawnArrivals arrivals; want both", cancels, sorted)
	}
}

// arrivalsAt is a SpawnArrivals schedule: arrival i at ats[i] on
// processor procs[i], all running body.
func arrivalsAt(ats []Time, procs []int, body func(*Thread)) func(int) (Time, int, func(*Thread)) {
	return func(i int) (Time, int, func(*Thread)) { return ats[i], procs[i], body }
}

// TestSpawnArrivalsOutOfOrderPanics asserts an arrival earlier than the
// one before it panics, within one call or behind an earlier call's
// pending arrivals, whichever processor either is bound to, and that the
// rejected call reserves nothing.
func TestSpawnArrivalsOutOfOrderPanics(t *testing.T) {
	body := func(*Thread) {}
	for _, pending := range []int{1, 3} { // the head only, or arrivals behind it too
		e := NewEngine(1)
		m := NewMachine(e, 2)
		ats, procs := make([]Time, pending), make([]int, pending)
		for i := range ats {
			ats[i], procs[i] = Time(100+i), i%2
		}
		m.SpawnArrivals("a", pending, arrivalsAt(ats, procs, body))
		for _, late := range [][]Time{{50}, {200, 150}} {
			func() {
				defer func() {
					r := recover()
					want := fmt.Sprintf("arrival %d at %d before", len(late)-1, late[len(late)-1])
					if r == nil || !strings.Contains(r.(string), want) {
						t.Fatalf("pending %d, late %v: recovered %v, want a SpawnArrivals order panic", pending, late, r)
					}
				}()
				m.SpawnArrivals("b", len(late), arrivalsAt(late, []int{1, 0}, body))
			}()
			if e.liveThreads != pending || e.seq != uint64(pending) {
				t.Fatalf("pending %d: a rejected call left %d live threads and seq %d", pending, e.liveThreads, e.seq)
			}
		}
	}
}

// TestSpawnArrivalsMatchesSpawn asserts SpawnArrivals runs the same
// threads with the same ids at the same times as Spawn, while holding
// one heap entry for all of its arrivals.
func TestSpawnArrivalsMatchesSpawn(t *testing.T) {
	trace := func(arrivals bool) (got []string, heap int) {
		e := NewEngine(1)
		m := NewMachine(e, 2)
		ats, procs, bodies := make([]Time, 20), make([]int, 20), make([]func(*Thread), 20)
		for i := range ats {
			p := m.Proc(i % 2)
			ats[i], procs[i] = Time(40+i/3*40), p.ID()
			bodies[i] = func(th *Thread) {
				th.Exec(p, 30)
				got = append(got, th.String()+"@"+strconv.FormatUint(th.Now(), 10))
			}
			if !arrivals {
				p.Spawn("req", ats[i], bodies[i])
			}
		}
		if arrivals {
			m.SpawnArrivals("req", 20, func(i int) (Time, int, func(*Thread)) { return ats[i], procs[i], bodies[i] })
		}
		heap = len(e.heap)
		if e.liveThreads != 20 {
			t.Fatalf("arrivals=%v: Live() = %d before Run, want 20", arrivals, e.liveThreads)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got, heap
	}
	plain, plainHeap := trace(false)
	sorted, sortedHeap := trace(true)
	if strings.Join(plain, " ") != strings.Join(sorted, " ") {
		t.Fatalf("SpawnArrivals ran\n%v\nSpawn ran\n%v", sorted, plain)
	}
	if plainHeap != 20 || sortedHeap != 1 {
		t.Fatalf("heap entries before Run: Spawn %d, SpawnArrivals %d; want 20 and 1", plainHeap, sortedHeap)
	}
}

// TestSpawnArrivalsOnClusterIsSpawn asserts that a cluster lane, which
// keeps every event in its heap, takes SpawnArrivals as plain Spawns:
// one heap entry per arrival, each thread starting at its own time.
func TestSpawnArrivalsOnClusterIsSpawn(t *testing.T) {
	cl := NewCluster(1, 2)
	m := cl.NewMachine(4)
	var started []Time
	m.SpawnArrivals("req", 8, func(i int) (Time, int, func(*Thread)) {
		return Time(10 * i), i % 4, func(th *Thread) { started = append(started, th.Now()) }
	})
	if n := len(cl.lanes[0].heap) + len(cl.lanes[1].heap); n != 8 {
		t.Fatalf("lane heaps hold %d entries for 8 arrivals, want 8", n)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if len(started) != 8 {
		t.Fatalf("%d of 8 arrivals started", len(started))
	}
	for i, at := range started {
		if at != Time(10*i) {
			t.Fatalf("arrival %d started at %d, want %d", i, at, 10*i)
		}
	}
}

// TestSpawnArrivalsStartsInSpawnOrderPerProc pins what an open-loop
// source with one body per processor relies on (kv.RunExperiment's
// frontends): on one processor, arrivals start in index order, ties in
// time included, while earlier arrivals are still running, on the
// serial and the clustered engine alike.
func TestSpawnArrivalsStartsInSpawnOrderPerProc(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		var m *Machine
		var run func() error
		if clustered {
			cl := NewCluster(1, 2)
			m, run = cl.NewMachine(4), cl.Run
		} else {
			e := NewEngine(1)
			m, run = NewMachine(e, 4), e.Run
		}
		started := make([][]int, 4)
		const n = 40
		m.SpawnArrivals("req", n, func(i int) (Time, int, func(*Thread)) {
			p := m.Proc(i * 3 % 4)
			return Time(10 * (i / 5)), p.ID(), func(th *Thread) {
				started[p.ID()] = append(started[p.ID()], i)
				th.Exec(p, 25) // still running when later arrivals are due
			}
		})
		if err := run(); err != nil {
			t.Fatal(err)
		}
		total := 0
		for p, got := range started {
			total += len(got)
			for k := 1; k < len(got); k++ {
				if got[k] < got[k-1] {
					t.Fatalf("clustered=%v: p%d started arrivals in order %v, want index order", clustered, p, got)
				}
			}
		}
		if total != n {
			t.Fatalf("clustered=%v: %d of %d arrivals started", clustered, total, n)
		}
	}
}

// TestCancelInRunNeverFires asserts the two ways Cancel takes an event
// out of a sorted run: a head leaves the heap at once and hands its slot
// to its successor, and an event behind the head becomes a tombstone
// that the run skips, wherever it sits and whatever is appended behind
// it. Neither ever fires.
func TestCancelInRunNeverFires(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	var evs []*Event
	at := func(i int) {
		evs = append(evs, e.Schedule(0, func() { fired = append(fired, i) })) // the zero-delay run
	}
	for i := 0; i < 5; i++ {
		at(i)
	}
	if len(e.heap) != 1 {
		t.Fatalf("heap holds %d entries for one zero-delay run, want 1", len(e.heap))
	}
	evs[2].Cancel() // behind the head
	evs[4].Cancel() // the tail
	evs[4].Cancel() // a second cancel is a no-op
	at(5)           // appended behind a tombstone
	evs[0].Cancel() // the head
	if len(e.heap) != 1 || e.heap[0] != evs[1] {
		t.Fatal("cancelling the run's head did not hand its heap slot to the successor")
	}
	evs[1].Cancel() // the new head: its successor is a tombstone, skipped
	if len(e.heap) != 1 || e.heap[0] != evs[3] {
		t.Fatal("the run's head did not pass over the tombstone behind it")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 5 {
		t.Fatalf("fired = %v, want [3 5]", fired)
	}
	// A run whose only event is cancelled is empty: the next event is a
	// new head.
	e.Schedule(0, func() { fired = append(fired, 9) }).Cancel()
	if len(e.heap) != 0 {
		t.Fatalf("heap holds %d entries after cancelling a run's only event", len(e.heap))
	}
	at(6)
	if len(e.heap) != 1 || e.heap[0] != evs[len(evs)-1] {
		t.Fatal("an event after a cancelled run's only event did not head the run")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[2] != 6 {
		t.Fatalf("fired = %v, want [3 5 6]", fired)
	}
}

// TestRunOrderViolationPanics asserts the correctness check on a run:
// an event that would sort before the run's tail panics instead of
// hiding behind the head.
func TestRunOrderViolationPanics(t *testing.T) {
	e := NewEngine(1)
	p := NewMachine(e, 1).Proc(0)
	e.schedule(100, func() {}, nil, &p.run)
	e.schedule(120, func() {}, nil, &p.run)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "breaks a sorted run") {
			t.Fatalf("recovered %v, want a sorted-run panic", r)
		}
	}()
	e.schedule(110, func() {}, nil, &p.run)
}
