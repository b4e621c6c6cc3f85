package kv

import (
	"fmt"

	"compmig/internal/apps/btree"
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/load"
	"compmig/internal/mem"
	"compmig/internal/network"
	"compmig/internal/policy"
	"compmig/internal/sim"
	"compmig/internal/stats"
	"compmig/internal/store"
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

	Scheme core.Scheme
	// Policy, when non-empty, routes every operation through an
	// internal/policy engine: "static:<mech>", "costmodel", "bandit[:eps]".
	Policy string
	// Load is the open-loop workload (nil = load.Spec defaults).
	Load *load.Spec
	// Hetero gives per-processor speed factors; partitions live on the
	// low-numbered processors, so bimodal slowness lands on the storage
	// tier (nil = uniform machine).
	Hetero *cost.Hetero
	// Faults attaches a deterministic fault injector (nil = none).
	Faults *fault.Spec
	// Durable forces the WAL/checkpoint store on; it also switches on
	// automatically whenever Faults schedules a wipe window.
	Durable bool
	// DropNthAppend / DropNthReplay are negative-test levers: lose the
	// nth WAL append or skip the nth replayed record, so the post-run
	// checker's teeth can be verified.
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

// Result is one measured run.
type Result struct {
	Scheme string
	Policy string

	Ops        uint64  // completed requests
	Makespan   uint64  // cycle of the last completion
	Throughput float64 // requests per 1000 cycles over the makespan

	MeanLatency   float64 // cycles per request (arrival to completion)
	P50, P95, P99 uint64  // latency percentile upper bounds, cycles
	// Latency is the full latency distribution (harness tables merge it
	// into bench output).
	Latency *stats.Histogram

	WordsPerOp float64
	HitRate    float64

	Gets, Puts, Scans uint64

	Decisions   [4]uint64
	PolicyStats *policy.Stats

	Fault *fault.Counters
	// Recovery holds the durability-store counters of a durable run
	// (nil when the store was off).
	Recovery *store.Counters
	// InvariantErr is the post-run checker's verdict ("" = every
	// invariant held: no lost updates, reads monotone per key).
	InvariantErr string
}

// RunExperiment builds a fresh machine, replays the workload open-loop,
// and reports throughput, tail latency, and the invariant verdict.
func RunExperiment(cfg Config) Result {
	cfg = cfg.WithDefaults()
	eng := sim.NewEngine(cfg.Seed)
	model := cfg.Scheme.Model()
	mach := sim.NewMachine(eng, cfg.StoreProcs+cfg.FrontProcs)
	if cfg.Hetero.Enabled() {
		for i, f := range cfg.Hetero.Factors(mach.N()) {
			mach.Proc(i).SetSpeed(sim.Time(f), cost.SpeedDen)
		}
	}
	col := stats.NewCollector()
	net := network.New(eng, network.Crossbar{}, col, model.NetTransitBase, model.NetTransitPerHop)
	var inj *fault.Injector
	if cfg.Faults.Enabled() {
		inj = fault.NewInjector(cfg.Faults)
		net.AttachFaults(inj)
		for _, w := range inj.Windows() {
			if w.Proc < 0 || w.Proc >= mach.N() {
				panic(fmt.Sprintf("kv: fault window targets proc %d, machine has [0,%d)", w.Proc, mach.N()))
			}
			mach.Proc(w.Proc).AddDownWindow(w.Start, w.End())
		}
	}
	rt := core.New(eng, mach, net, col, model)

	var shm *mem.System
	if cfg.Scheme.Mechanism == core.SharedMem || cfg.Policy != "" {
		shm = mem.New(eng, mach, net, col, mem.DefaultParams())
	}
	defer shm.Release()

	// The key population: distinct sorted values, a pure function of the
	// seed (btree.GenKeys memoizes on the PRNG state).
	nkeys := cfg.Load.NumKeys()
	population := btree.GenKeys(eng.Rand().Fork(), int(nkeys), cfg.KeySpace)
	st := Build(rt, shm, cfg.Scheme,
		Params{StoreProcs: cfg.StoreProcs, Touches: cfg.Touches, IndexFanout: cfg.IndexFanout},
		population)
	if cfg.AccessCycles != 0 {
		st.AccessCycles = cfg.AccessCycles
	}

	// Durability wiring comes after Build so the loaded index seeds the
	// checkpoints for free instead of charging simulated append time for
	// pre-run population.
	var wal *store.Store
	if cfg.Durable || cfg.Faults.HasWipe() {
		wal = store.New(mach, col, cost.DefaultDurability(), cfg.Faults.CkptInterval(), rt.Objects.Home)
		st.EnableDurability(wal)
		rt.Objects.SetJournal(wal)
		if cfg.DropNthAppend > 0 {
			wal.ScriptDropAppend(cfg.DropNthAppend)
		}
		if cfg.DropNthReplay > 0 {
			wal.ScriptDropReplay(cfg.DropNthReplay)
		}
		if inj != nil {
			wal.ScheduleRecovery(eng, inj.Windows())
		}
	}

	var pol *policy.Engine
	if cfg.Policy != "" {
		var err error
		pol, err = policy.New(cfg.Policy, model, mem.DefaultParams(), eng, col, mach.N(), cfg.Seed)
		if err != nil {
			panic("kv: " + err.Error())
		}
		pol.AttachMem(shm)
		if cfg.Hetero.Enabled() {
			factors := cfg.Hetero.Factors(mach.N())
			speeds := make([]float64, len(factors))
			for i, f := range factors {
				speeds[i] = float64(f) / float64(cost.SpeedDen)
			}
			pol.SetSpeeds(speeds)
		}
		rt.Obs = pol
		st.AttachPolicy(pol)
	}

	// Open loop: every arrival is scheduled before the run starts, so a
	// slow server accumulates queueing delay instead of throttling the
	// offered load.
	events := load.NewGen(cfg.Load, cfg.Seed).Events()
	issued := make([]uint64, nkeys) // puts issued per key
	acked := make([]uint64, nkeys)  // highest version acked per key
	monotonic := 0                  // reads that went backwards
	var lastDone sim.Time
	res := Result{Scheme: cfg.Scheme.Name()}
	for i, ev := range events {
		i, ev := i, ev
		proc := cfg.StoreProcs + i%cfg.FrontProcs
		eng.Spawn("kv.req", ev.At, func(th *sim.Thread) {
			task := rt.NewTask(th, proc)
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
				// A fresh task on the same thread and processor: the index
				// walk hands its task to interface methods, which moves it
				// to the heap, and this keeps the gets' and puts' task on
				// the stack.
				st.Scan(rt.NewTask(th, proc), key, ev.Op.ScanLen)
				res.Scans++
			}
			col.CountOp(uint64(th.Now() - arrive))
			if th.Now() > lastDone {
				lastDone = th.Now()
			}
		})
	}
	if err := eng.Run(); err != nil {
		panic("kv: experiment did not quiesce: " + err.Error())
	}

	res.Ops = col.Ops
	res.Makespan = uint64(lastDone)
	if lastDone > 0 {
		res.Throughput = float64(col.Ops) * 1000 / float64(lastDone)
	}
	res.MeanLatency = col.MeanOpLatency()
	res.P50 = col.Latency.Quantile(0.50)
	res.P95 = col.Latency.Quantile(0.95)
	res.P99 = col.Latency.Quantile(0.99)
	hist := &stats.Histogram{}
	hist.AddFrom(&col.Latency)
	res.Latency = hist
	if col.Ops > 0 {
		res.WordsPerOp = float64(col.WordsSent) / float64(col.Ops)
	}
	res.HitRate = col.HitRate()
	if pol != nil {
		res.Policy = pol.Name()
		res.Decisions = st.Decisions()
		ps := pol.Stats()
		res.PolicyStats = &ps
	}
	if inj != nil {
		c := inj.Counters
		res.Fault = &c
		inj.FlushProfile()
	}
	if wal != nil {
		c := wal.Counters
		res.Recovery = &c
		wal.FlushProfile()
	}
	res.InvariantErr = checkInvariants(st, issued, acked, monotonic, inj != nil)
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
