package sim

import "fmt"

// Proc models one processor of the simulated distributed-memory machine.
// Work segments issued against a Proc serialize in issue order: a segment
// issued while the processor is busy starts when the processor frees up.
// This is what produces the paper's resource-contention effects (e.g. the
// B-tree root bottleneck, where activations arrive at the root's processor
// faster than it can retire them).
type Proc struct {
	eng  *Engine
	id   int
	lane int  // the index of eng among the machine's lanes
	free Time // the cycle at which the processor next becomes idle

	// run queues the serial engine's events timed by ReserveAt (Exec
	// wakeups and ExecAsync completions) that are due past the wheel's
	// span. free never decreases, so neither do their times (see the
	// package comment).
	run run

	// Busy accumulates total busy cycles for utilization reporting.
	Busy Time

	// speedNum/speedDen, when set, scale every booked work segment by
	// num/den (ceiling division) — a slow processor takes num/den times
	// as long to retire the same cycles. Zero den means full speed; the
	// fields stay zero on homogeneous machines so the scaling costs one
	// predictable branch.
	speedNum, speedDen Time

	// downs are scheduled outage windows (fault injection): work segments
	// booked inside a window start when it closes. Nil on the fault-free
	// path, so ReserveAt pays one nil check; a pointer keeps the Proc in
	// its allocation size class.
	downs *[]downWindow
}

type downWindow struct{ start, end Time }

// AddDownWindow schedules an outage on the processor: any work segment
// that would start inside [start, end) is pushed to end. Windows are
// kept sorted by start so a forward scan resolves chains of windows.
func (p *Proc) AddDownWindow(start, end Time) {
	if end <= start {
		panic(fmt.Sprintf("sim: down window [%d,%d) on p%d is empty", start, end, p.id))
	}
	if p.downs == nil {
		p.downs = new([]downWindow)
	}
	downs := append(*p.downs, downWindow{start: start, end: end})
	for i := len(downs) - 1; i > 0 && downs[i].start < downs[i-1].start; i-- {
		downs[i], downs[i-1] = downs[i-1], downs[i]
	}
	*p.downs = downs
}

// skipDown pushes t past any outage window covering it.
func (p *Proc) skipDown(t Time) Time {
	for _, w := range *p.downs {
		if t >= w.start && t < w.end {
			t = w.end
		}
	}
	return t
}

// Machine is a fixed set of processors partitioned into lanes, the
// engines their events execute on: the serial engine is a machine's
// one lane, and a cluster's machine has a lane per shard.
type Machine struct {
	procs []Proc
	lanes []*Engine
}

// NewMachine creates n processors attached to e, the machine's one lane.
// The processors are one allocation.
func NewMachine(e *Engine, n int) *Machine {
	if n <= 0 {
		panic("sim: machine needs at least one processor")
	}
	m := &Machine{procs: make([]Proc, n), lanes: []*Engine{e}}
	for i := range m.procs {
		m.procs[i] = Proc{eng: e, id: i}
	}
	return m
}

// N returns the number of processors.
func (m *Machine) N() int { return len(m.procs) }

// Proc returns processor i.
func (m *Machine) Proc(i int) *Proc {
	if i < 0 || i >= len(m.procs) {
		panic(fmt.Sprintf("sim: proc %d out of range [0,%d)", i, len(m.procs)))
	}
	return &m.procs[i]
}

// Lanes returns the number of lanes.
func (m *Machine) Lanes() int { return len(m.lanes) }

// Lane returns lane i's engine. Lane 0 is the engine setup code builds
// against: the serial engine, or a cluster's root lane.
func (m *Machine) Lane(i int) *Engine { return m.lanes[i] }

// LaneOf returns the index of the lane processor p's events execute on.
func (m *Machine) LaneOf(p int) int { return m.procs[p].lane }

// ID returns the processor number.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine the processor's events execute on: its
// lane's (see Machine.LaneOf).
func (p *Proc) Engine() *Engine { return p.eng }

// Spawn creates a simulated thread bound to processor p's event stream,
// beginning at p's engine time plus delay. On a clustered machine the
// wakeup lands on p's shard lane; on a serial engine this is identical
// to Engine.Spawn.
func (p *Proc) Spawn(name string, delay Time, body func(*Thread)) *Thread {
	return p.eng.spawnAt(name, delay, body, int32(p.id))
}

// SpawnArrivals creates n simulated threads for an open-loop source
// that knows its arrivals up front. arrival(i) gives thread i's start
// time, its processor and its body; it must be a pure function of i,
// and its times must not decrease, nor start before now or before the
// last arrival still pending from an earlier call. The call checks that
// order once, panicking on a violation, and reserves the threads' ids
// and wakeup sequence numbers as n Spawn calls would, so the run is
// identical to one built with Spawn. The engine reads the schedule in
// place: it calls arrival(i) again, and makes thread i and its wakeup,
// only when arrival i reaches the head of the engine's arrival run, so a
// long schedule costs one queue entry and no copy. The arrival run is the
// serial engine's: SpawnArrivals panics on a clustered machine, whose
// lanes key events by stream (see Cluster).
func (m *Machine) SpawnArrivals(name string, n int, arrival func(i int) (at Time, proc int, body func(*Thread))) {
	e := m.procs[0].eng
	if e.cluster != nil {
		panic(fmt.Sprintf("sim: SpawnArrivals on a %d-lane cluster; open-loop arrivals run on the serial engine", len(m.lanes)))
	}
	s := &e.arrivals
	prev := e.now
	if s.head != nil { // a pending arrival is never due before now
		prev = s.last
	}
	for i := 0; i < n; i++ {
		at, proc, _ := arrival(i)
		if at < prev {
			panic(fmt.Sprintf("sim: SpawnArrivals arrival %d at %d before %d", i, at, prev))
		}
		m.Proc(proc) // panics on a processor out of range
		prev = at
	}
	s.batches = append(s.batches, arrivalBatch{name: name, arrival: arrival, n: n, seq: e.seq + 1, tid: e.nextTID + 1})
	s.last = prev
	e.seq += uint64(n)
	e.nextTID += n
	e.liveThreads += n
	if s.head == nil && n > 0 {
		e.push(s.next(e))
	}
}

// FreeAt returns the cycle at which the processor next becomes idle.
func (p *Proc) FreeAt() Time { return p.free }

// SetSpeed gives the processor a heterogeneous speed: every work
// segment booked on it is stretched by num/den (ceiling division), so
// num=250, den=100 models a processor 2.5x slower than the baseline.
// num == den restores full speed. Charged cycle *statistics* are not
// scaled — the cost model still prices an operation identically
// everywhere; only the processor's occupancy stretches, which is what
// per-processor clock speed means.
func (p *Proc) SetSpeed(num, den Time) {
	if num == 0 || den == 0 {
		panic(fmt.Sprintf("sim: p%d speed %d/%d needs positive numerator and denominator", p.id, num, den))
	}
	if num < den {
		panic(fmt.Sprintf("sim: p%d speed %d/%d would be faster than the baseline; express speedups by slowing the others", p.id, num, den))
	}
	if num == den {
		p.speedNum, p.speedDen = 0, 0
		return
	}
	p.speedNum, p.speedDen = num, den
}

// scale stretches a work segment by the processor's speed ratio.
func (p *Proc) scale(cycles Time) Time {
	if p.speedDen == 0 || cycles == 0 {
		return cycles
	}
	return (cycles*p.speedNum + p.speedDen - 1) / p.speedDen
}

// Utilization returns busy cycles divided by elapsed cycles, in [0,1].
func (p *Proc) Utilization() float64 {
	if p.eng.now == 0 {
		return 0
	}
	return float64(p.Busy) / float64(p.eng.now)
}

// Exec runs cycles of work for thread th on processor p, blocking the
// thread until the work completes (including any queueing delay while the
// processor drains earlier segments). Like Sleep, it advances the clock
// directly when no other event fires at or before the completion time.
func (th *Thread) Exec(p *Proc, cycles Time) {
	if cycles == 0 {
		return
	}
	if th.eng != p.eng {
		panic(fmt.Sprintf("sim: thread %s executing on p%d of another shard lane", th, p.id))
	}
	end := p.ReserveAt(p.eng.now, cycles)
	if th.eng.TryAdvance(end) {
		return
	}
	th.eng.schedule(end, nil, th, &p.run)
	th.execProc = p.id
	th.Park(execWhere)
}

// ReserveAt books cycles of exclusive processor time starting no earlier
// than at (later if the processor is still draining earlier segments or
// is down), without blocking any thread or scheduling any event. It
// returns the completion cycle. The booked duration is stretched by the
// processor's speed ratio (heterogeneous machines). Exec and ExecAsync
// book from now; the shared-memory all-hit path uses it to account
// occupancy for work it has already decided completes synchronously.
func (p *Proc) ReserveAt(at, cycles Time) Time {
	cycles = p.scale(cycles)
	start := p.free
	if start < at {
		start = at
	}
	if p.downs != nil {
		start = p.skipDown(start)
	}
	end := start + cycles
	p.free = end
	p.Busy += cycles
	return end
}

// ExecAsync books cycles of work on p without a thread attached (e.g. a
// hardware handler or an interrupt-level message dispatch) and invokes fn
// when the work completes. fn may be nil.
func (p *Proc) ExecAsync(cycles Time, fn func()) {
	end := p.ReserveAt(p.eng.now, cycles)
	if fn != nil {
		ev := p.eng.schedule(end, fn, nil, &p.run)
		ev.exec = int32(p.id)
	}
}
