package kv

import (
	"fmt"

	"compmig/internal/apps/btree"
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/load"
	"compmig/internal/machine"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// Config describes one open-loop KV run.
type Config struct {
	StoreProcs int // storage processors / partitions (default 8)
	FrontProcs int // frontend processors receiving arrivals (default 4)
	Touches    int // record accesses per point op (default 3)
	// AccessCycles is the user-code cost of one record access in cycles
	// (default Store's 40). It is charged wherever the access executes —
	// the storage processor under RPC and migration, the requesting
	// frontend under shared memory — so it sets how much the machine's
	// speed profile matters.
	AccessCycles uint64
	// FrontWork is the frontend's per-request parse/dispatch cost in
	// cycles; it makes frontends a real queueing stage (default 50).
	FrontWork uint64
	// KeySpace is the value space the key population is drawn from
	// (default 1<<20).
	KeySpace uint64
	// IndexFanout sizes the range-scan index nodes (default 16).
	IndexFanout int

	// Load is the open-loop workload (nil = load.Spec defaults).
	Load *load.Spec

	// The machine: these fields mean what the machine.Config fields of
	// the same names mean. Partitions live on the low-numbered
	// processors, so bimodal Hetero slowness lands on the storage tier.
	// The store does not support object migration, as a scheme or as a
	// static policy.
	Scheme        core.Scheme
	Policy        string
	Hetero        *cost.Hetero
	Faults        *fault.Spec
	Durable       bool
	DropNthAppend uint64
	DropNthReplay uint64
	Seed          uint64
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.StoreProcs == 0 {
		c.StoreProcs = 8
	}
	if c.FrontProcs == 0 {
		c.FrontProcs = 4
	}
	if c.Touches == 0 {
		c.Touches = 3
	}
	if c.FrontWork == 0 {
		c.FrontWork = 50
	}
	if c.KeySpace == 0 {
		c.KeySpace = 1 << 20
	}
	if c.IndexFanout == 0 {
		c.IndexFanout = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Procs returns the machine size: the storage processors, then the
// frontends.
func (c Config) Procs() int {
	c = c.WithDefaults()
	return c.StoreProcs + c.FrontProcs
}

// machineConfig returns the machine-level part of the configuration.
func (c Config) machineConfig() machine.Config {
	return machine.Config{
		Seed: c.Seed, Scheme: c.Scheme, Hetero: c.Hetero, Policy: c.Policy,
		Faults: c.Faults, Durable: c.Durable, DropNthAppend: c.DropNthAppend,
		DropNthReplay: c.DropNthReplay,
	}
}

// Result is one measured run. InvariantErr is empty when every
// invariant held: no lost updates, reads monotone per key.
type Result struct {
	machine.Result
	Scheme string

	Makespan   uint64  // cycle of the last completion
	Throughput float64 // requests per 1000 cycles over the makespan

	P50, P95, P99 uint64 // latency percentile upper bounds, cycles
	// Latency is the full latency distribution (harness tables merge it
	// into bench output).
	Latency *stats.Histogram

	Gets, Puts, Scans uint64
}

// RunExperiment builds a fresh machine, replays the workload open-loop,
// and reports throughput, tail latency, and the invariant verdict.
func RunExperiment(cfg Config) Result {
	cfg = cfg.WithDefaults()
	m := machine.New("kv", cfg.machineConfig(), cfg.Procs())

	// The key population: distinct sorted values, a pure function of the
	// seed (btree.GenKeys memoizes on the PRNG state).
	nkeys := cfg.Load.NumKeys()
	population := btree.GenKeys(m.Eng.Rand().Fork(), int(nkeys), cfg.KeySpace)
	st := Build(m.RT, m.Mem, cfg.Scheme,
		Params{StoreProcs: cfg.StoreProcs, Touches: cfg.Touches, IndexFanout: cfg.IndexFanout},
		population)
	if cfg.AccessCycles != 0 {
		st.AccessCycles = cfg.AccessCycles
	}
	m.Attach(st)

	// Open loop: every arrival is spawned before the run starts, so a
	// slow server accumulates queueing delay instead of throttling the
	// offered load. The arrivals come in time order, so one
	// Machine.SpawnArrivals call hands the engine the whole schedule,
	// which it reads in place from events: each arrival's thread and
	// wakeup are made only when it is the next arrival due, and the
	// event heap holds one arrival instead of all of them. Arrival i
	// goes to frontend i mod FrontProcs, and one processor's arrivals
	// start in index order, so each frontend has one body that takes its
	// next event from a cursor into events.
	events := load.NewGen(cfg.Load, cfg.Seed).Events()
	issued := make([]uint64, nkeys) // puts issued per key
	acked := make([]uint64, nkeys)  // highest version acked per key
	monotonic := 0                  // reads that went backwards
	var lastDone sim.Time
	res := Result{Scheme: cfg.Scheme.Name()}
	bodies := make([]func(*sim.Thread), cfg.FrontProcs)
	for f := range bodies {
		proc, next := cfg.StoreProcs+f, f
		col := m.Col(proc)
		bodies[f] = func(th *sim.Thread) {
			ev := &events[next]
			next += cfg.FrontProcs
			task := m.RT.NewTask(th, proc)
			arrive := th.Now()
			task.Work(cfg.FrontWork)
			key := ev.Op.Key
			switch ev.Op.Kind {
			case load.KindPut:
				issued[key]++
				v := st.Put(task, key)
				if v > acked[key] {
					acked[key] = v
				}
				res.Puts++
			case load.KindGet:
				before := acked[key]
				if st.Get(task, key) < before {
					monotonic++
				}
				res.Gets++
			case load.KindScan:
				st.Scan(task, key, ev.Op.ScanLen)
				res.Scans++
			}
			col.CountOp(uint64(th.Now() - arrive))
			if th.Now() > lastDone {
				lastDone = th.Now()
			}
		}
	}
	m.Mach.SpawnArrivals("kv.req", len(events), func(i int) (sim.Time, int, func(*sim.Thread)) {
		f := i % cfg.FrontProcs
		return events[i].At, cfg.StoreProcs + f, bodies[f]
	})

	col := m.Run(&res.Result)
	res.Makespan = uint64(lastDone)
	if lastDone > 0 {
		res.Throughput = float64(col.Ops) * 1000 / float64(lastDone)
	}
	res.P50 = col.Latency.Quantile(0.50)
	res.P95 = col.Latency.Quantile(0.95)
	res.P99 = col.Latency.Quantile(0.99)
	hist := &stats.Histogram{}
	hist.AddFrom(&col.Latency)
	res.Latency = hist
	res.InvariantErr = checkInvariants(st, issued, acked, monotonic, res.Fault != nil)
	return res
}

// checkInvariants verifies the store's end state against the host-side
// ledgers: every acked write must be present (no lost updates), the
// store must not exceed what was issued, and — on a fault-free run,
// where the runtime completes every request exactly once — the applied
// count must equal the issued count. Reads must never go backwards.
func checkInvariants(st *Store, issued, acked []uint64, monotonic int, faulty bool) string {
	for id := range issued {
		v := st.Value(uint64(id))
		if acked[id] > v {
			return fmt.Sprintf("lost update on key %d: acked version %d, stored %d", id, acked[id], v)
		}
		if v > issued[id] {
			return fmt.Sprintf("over-applied key %d: %d puts issued, version %d stored", id, issued[id], v)
		}
		if !faulty && v != issued[id] {
			return fmt.Sprintf("key %d: %d puts issued but version %d stored", id, issued[id], v)
		}
	}
	if monotonic > 0 {
		return fmt.Sprintf("%d reads went backwards (read-your-writes violated)", monotonic)
	}
	return ""
}
