// Sharded event engines with conservative lookahead (classic
// conservative PDES, in the null-message family of Chandy/Misra/Bryant).
//
// A Cluster couples several engines ("lanes") into one logical
// simulation. Processors are partitioned into contiguous lane groups;
// each lane owns its own event queue, thread pool, and clock. The
// coordinator advances the simulation in windows [T, T+L): T is the
// earliest pending event across all lanes and L is the lookahead — the
// minimum latency any cross-lane message can have, derived from the
// network topology (network.Lookahead). Within a window the lanes are
// causally independent (nothing a lane sends can arrive before T+L), so
// they may run concurrently on host goroutines; between windows the
// coordinator flushes the inter-lane outboxes into the destination
// queues. Instead of per-link null messages, the window barrier plays the
// null-message role: a lane with no events inside a window contributes a
// "null window" (counted in the shard.nulls profile section) and just
// waits.
//
// Determinism and shard-invariance: every event carries a merge key
// (at, stream, seq) where stream identifies the scheduling context (the
// processor an event was scheduled from, or stream 0 for setup and
// coordinator context) and seq comes from that stream's cluster-wide
// counter. A stream's counter is only ever advanced while that stream
// executes — which happens on exactly one lane — so the keys are
// race-free, and because they name the scheduling context rather than
// the lane layout, a given program computes identical keys at every
// shard count. Each lane pops its queue in key order, the window
// protocol guarantees no event arrives behind a lane's progress, and
// per-processor state is only touched by that processor's stream, so
// the per-processor event sequences — and any order-insensitive merge
// of per-lane measurements — are byte-identical at shard-count 1 vs N.
package sim

import (
	"fmt"
	"runtime"

	"compmig/internal/profile"
)

// Cluster is a set of engine lanes advancing in conservative lookahead
// windows. Build one with NewCluster, attach processors with
// NewMachine, set the lookahead from the network topology, and drive
// the whole simulation with Run.
type Cluster struct {
	lanes  []*Engine
	laneOf []int // processor id -> lane index
	groups [][]int

	// ctrs[s] is the next merge-key sequence number of stream s: slot 0
	// is the setup/coordinator stream, slot p+1 is processor p's stream.
	// Each slot is written only while its stream executes (or during
	// single-threaded setup), so concurrent lanes never share a slot.
	ctrs []uint64

	lookahead Time
	globals   []globalFn
	outbox    [][][]crossEvent // outbox[src lane][dst lane] = pending sends
}

// globalFn is a coordinator-side callback fired at a window barrier once
// every lane has passed time at (see AtBarrier).
type globalFn struct {
	at Time
	fn func()
}

// crossEvent is one cross-lane message parked in an outbox between
// windows, carrying the merge key computed at send time.
type crossEvent struct {
	at     Time
	stream int32
	seq    uint64
	exec   int32
	fn     func()
}

// NewCluster creates shards engine lanes. Lane 0 is the root lane: it is
// seeded exactly like a serial NewEngine(seed), so setup code drawing
// from Root().Rand() sees the same stream at every shard count. The
// other lanes get deterministic per-lane streams forked from the seed
// (unused by workloads that draw randomness only during setup).
func NewCluster(seed uint64, shards int) *Cluster {
	if shards <= 0 {
		panic(fmt.Sprintf("sim: cluster needs at least one shard, got %d", shards))
	}
	cl := &Cluster{lanes: make([]*Engine, shards)}
	for i := range cl.lanes {
		e := NewEngine(seed)
		if i > 0 {
			// Distinct deterministic seed per lane (splitmix64 inside
			// NewPRNG decorrelates them); lane 0 keeps the serial seed.
			e.rng = NewPRNG(seed + uint64(i)*0x9E3779B97F4A7C15)
		}
		e.cluster, e.lane = cl, i
		cl.lanes[i] = e
	}
	cl.outbox = make([][][]crossEvent, shards)
	for i := range cl.outbox {
		cl.outbox[i] = make([][]crossEvent, shards)
	}
	return cl
}

// Root returns lane 0, the engine setup code should build against.
func (cl *Cluster) Root() *Engine { return cl.lanes[0] }

// Groups returns the processor ids of each lane, in lane order. The
// network layer derives the lookahead from these via MinHops.
func (cl *Cluster) Groups() [][]int { return cl.groups }

// NewMachine creates n processors partitioned into contiguous lane
// groups (processor p lives on lane p*shards/n) and sizes the cluster's
// merge-key counter table. Call it once per cluster, before any events
// are scheduled.
func (cl *Cluster) NewMachine(n int) *Machine {
	if n <= 0 {
		panic("sim: machine needs at least one processor")
	}
	if cl.laneOf != nil {
		panic("sim: cluster already has a machine")
	}
	shards := len(cl.lanes)
	if shards > n {
		panic(fmt.Sprintf("sim: %d shards for %d processors", shards, n))
	}
	cl.laneOf = make([]int, n)
	cl.groups = make([][]int, shards)
	cl.ctrs = make([]uint64, n+1)
	m := NewMachine(cl.lanes[0], n)
	m.lanes = cl.lanes
	for i := range m.procs {
		p := &m.procs[i]
		lane := i * shards / n
		p.eng, p.lane = cl.lanes[lane], lane
		cl.laneOf[i] = lane
		cl.groups[lane] = append(cl.groups[lane], i)
	}
	return m
}

// SetLookahead fixes the conservative window length: the minimum latency
// of any cross-lane message. Cross-lane sends with a smaller delay
// panic. Zero (the default) is only meaningful on a single-lane cluster,
// where windows are unbounded; a multi-lane cluster falls back to
// one-cycle windows, which is correct but slow.
func (cl *Cluster) SetLookahead(l Time) { cl.lookahead = l }

// AtBarrier registers fn to run on the coordinator once every lane has
// executed all events before time at — the clustered analogue of a
// setup-scheduled marker event, which likewise fires before any
// runtime event at the same cycle. fn must not schedule events or touch
// lane state other than reading it; callbacks at equal times fire in
// registration order.
func (cl *Cluster) AtBarrier(at Time, fn func()) {
	cl.globals = append(cl.globals, globalFn{at: at, fn: fn})
}

// CrossSend schedules fn to run as processor dst's event stream at
// e.Now()+delay on dst's lane, crossing lanes through the cluster's
// deterministic inter-lane channel: the merge key is computed at send
// time from the sending stream, the event is parked in the outbox from
// lane e to dst's lane, and the coordinator flushes it into dst's queue
// at the next window barrier. delay must be at least the cluster's
// lookahead — that is what makes the barrier flush safe. Only a cluster
// lane has other lanes to send to.
func (e *Engine) CrossSend(delay Time, dst int, fn func()) {
	cl := e.cluster
	if delay < cl.lookahead {
		panic(fmt.Sprintf("sim: cross-lane send with delay %d below lookahead %d", delay, cl.lookahead))
	}
	stream := e.curStream + 1
	seq := cl.ctrs[stream]
	cl.ctrs[stream] = seq + 1
	to := cl.laneOf[dst]
	cl.outbox[e.lane][to] = append(cl.outbox[e.lane][to], crossEvent{
		at: e.now + delay, stream: stream, seq: seq, exec: int32(dst), fn: fn,
	})
	e.cross++
}

// inject pushes a flushed cross-lane event straight into the lane's
// queue, bypassing schedule: the merge key was already drawn at send
// time. Only the coordinator calls it, between windows.
func (e *Engine) inject(ce crossEvent) {
	if ce.at < e.now {
		panic(fmt.Sprintf("sim: cross-lane event at %d behind lane clock %d", ce.at, e.now))
	}
	e.push(e.newEvent(ce.at, ce.seq, ce.fn, nil, ce.stream, ce.exec))
}

// flush moves every parked cross-lane event into its destination queue.
func (cl *Cluster) flush() {
	for src := range cl.outbox {
		for dst, box := range cl.outbox[src] {
			if len(box) == 0 {
				continue
			}
			lane := cl.lanes[dst]
			for i := range box {
				lane.inject(box[i])
				box[i].fn = nil
			}
			cl.outbox[src][dst] = box[:0]
		}
	}
}

// minTop returns the earliest pending event time across all lanes.
func (cl *Cluster) minTop() (Time, bool) {
	var top Time
	ok := false
	for _, e := range cl.lanes {
		if e.top == nil {
			continue
		}
		if t := e.top.at; !ok || t < top {
			top, ok = t, true
		}
	}
	return top, ok
}

// minGlobal returns the earliest pending barrier-callback time.
func (cl *Cluster) minGlobal() (Time, bool) {
	var at Time
	ok := false
	for _, g := range cl.globals {
		if !ok || g.at < at {
			at, ok = g.at, true
		}
	}
	return at, ok
}

// fireGlobals aligns every lane clock to at and runs the barrier
// callbacks registered for it, in registration order.
func (cl *Cluster) fireGlobals(at Time) {
	for _, e := range cl.lanes {
		if e.now < at {
			e.now = at
		}
	}
	kept := cl.globals[:0]
	for _, g := range cl.globals {
		if g.at == at {
			g.fn()
		} else {
			kept = append(kept, g)
		}
	}
	cl.globals = kept
}

// Run drives every lane to completion: windows of conservative
// lookahead, lane execution (concurrently on multi-CPU hosts), outbox
// flushes, and barrier callbacks, until every queue drains. Like
// Engine.Run it returns a *DeadlockError if threads are still parked
// when events run out, and a *MaxEventsError if any lane's runaway
// guard trips. On return it adds the run's windows, lane events, null
// lane-windows, cross-lane messages and handoffs to the shard.* and
// engine.handoffs profile sections.
func (cl *Cluster) Run() error {
	var windows, events, nulls uint64
	startCross, startHandoffs := cl.laneTotals()
	defer func() {
		cross, handoffs := cl.laneTotals()
		profile.ShardWindows.Add(windows)
		profile.ShardEvents.Add(events)
		profile.ShardNulls.Add(nulls)
		profile.ShardCross.Add(cross - startCross)
		profile.EngineHandoffs.Add(handoffs - startHandoffs)
	}()
	var drivers []laneDriver
	if len(cl.lanes) > 1 && runtime.GOMAXPROCS(0) > 1 {
		drivers = cl.startDrivers()
		defer func() {
			for _, d := range drivers {
				close(d.work)
			}
		}()
	}
	before := make([]uint64, len(cl.lanes))
	for {
		top, ok := cl.minTop()
		gAt, gok := cl.minGlobal()
		if !ok && !gok {
			break
		}
		if gok && (!ok || gAt <= top) {
			cl.fireGlobals(gAt)
			continue
		}
		var end Time
		switch {
		case len(cl.lanes) == 1 && cl.lookahead == 0:
			end = ^Time(0) // serial cluster: run to the next barrier or dry
		case cl.lookahead == 0:
			end = top + 1
		default:
			end = top + cl.lookahead
		}
		if gok && gAt < end {
			end = gAt
		}
		if end <= top {
			end = top + 1
		}
		limit := end - 1
		for i, e := range cl.lanes {
			before[i] = e.processed
		}
		err := cl.runLanes(drivers, limit)
		windows++
		for i, e := range cl.lanes {
			d := e.processed - before[i]
			events += d
			if d == 0 {
				nulls++
			}
		}
		if err != nil {
			return err
		}
		cl.flush()
		stopped := false
		for _, e := range cl.lanes {
			stopped = stopped || e.stopped
		}
		if stopped {
			break
		}
	}
	live := 0
	var maxNow Time
	for _, e := range cl.lanes {
		live += e.liveThreads
		if e.now > maxNow {
			maxNow = e.now
		}
	}
	for _, e := range cl.lanes {
		if e.now < maxNow {
			e.now = maxNow
		}
	}
	if live > 0 {
		return deadlock(maxNow, cl.lanes)
	}
	return nil
}

// runLanes executes one window on every lane: through the persistent
// drivers when the host is multi-CPU, in lane order otherwise (the two
// are semantically identical — lanes share nothing within a window).
// The first failing lane's error wins, deterministically by lane index.
func (cl *Cluster) runLanes(drivers []laneDriver, limit Time) error {
	if drivers == nil {
		for _, e := range cl.lanes {
			if e.top == nil || e.top.at > limit {
				continue
			}
			if err := e.pump(limit); err != nil {
				return err
			}
		}
		return nil
	}
	for _, d := range drivers {
		d.work <- limit
	}
	var first error
	for _, d := range drivers {
		if err := <-d.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// laneTotals sums the lanes' cross-lane sends and handoffs.
func (cl *Cluster) laneTotals() (cross, handoffs uint64) {
	for _, e := range cl.lanes {
		cross += e.cross
		handoffs += e.handoffs
	}
	return cross, handoffs
}

// laneDriver is the persistent host goroutine owning one lane's window
// execution in parallel mode; work carries window limits, done carries
// the per-window result back to the coordinator barrier.
type laneDriver struct {
	work chan Time
	done chan error
}

// startDrivers launches one host goroutine per lane. This is
// host-parallel orchestration in the harness worker-pool sense: within
// a window the lanes are causally independent and share no simulation
// state, and the coordinator's channel barrier separates lane execution
// from every cross-lane mutation (outbox flush, barrier callbacks).
func (cl *Cluster) startDrivers() []laneDriver {
	drivers := make([]laneDriver, len(cl.lanes))
	for i := range drivers {
		drivers[i] = laneDriver{work: make(chan Time), done: make(chan error)}
		e := cl.lanes[i]
		d := drivers[i]
		go func() { //simvet:allow shard-lane driver; lanes share no state within a window and the coordinator's channel barrier orders all cross-lane effects
			for limit := range d.work {
				var err error
				if e.top != nil && e.top.at <= limit {
					err = e.pump(limit)
				}
				d.done <- err
			}
		}()
	}
	return drivers
}
