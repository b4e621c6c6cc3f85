package countnet

import (
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/machine"
	"compmig/internal/mem"
	"compmig/internal/sim"
)

// Config describes one counting-network run (one point of Figure 2/3).
type Config struct {
	Width   int    // 8 in the paper
	Threads int    // requesting threads, each on its own processor
	Think   uint64 // cycles between requests: 0 or 10000 in the paper

	Warmup  sim.Time // cycles before the measurement window opens
	Measure sim.Time // length of the measurement window

	// ThreadsPerProc co-locates several requester threads per processor
	// (default 1, the paper's layout). More threads per processor model
	// the Alewife multithreading the paper's machine omitted ("similar to
	// the Alewife machine, but without its multithreading capability"):
	// while one thread stalls on a miss or a reply, another runs.
	ThreadsPerProc int

	// The machine: these fields mean what the machine.Config fields of
	// the same names mean (nil/false reproduce the paper's machine). A
	// faulty or durable run also checks the network's invariants; only
	// the CM and RPC schemes can run on Shards >= 1 engines.
	Scheme        core.Scheme
	Seed          uint64
	Model         *cost.Model
	Mesh          bool
	MemParams     *mem.Params
	TraceCap      int // the trace lands in Result.Trace
	Policy        string
	Faults        *fault.Spec
	Durable       bool
	DropNthAppend uint64
	DropNthReplay uint64
	Shards        int
}

// WithDefaults fills unset fields with the paper's parameters.
func (c Config) WithDefaults() Config {
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Warmup == 0 {
		c.Warmup = 20000
	}
	if c.Measure == 0 {
		c.Measure = 200000
	}
	if c.ThreadsPerProc == 0 {
		c.ThreadsPerProc = 1
	}
	return c
}

// Procs returns the machine size: one processor per balancer, then one
// per ThreadsPerProc requester threads.
func (c Config) Procs() int {
	c = c.WithDefaults()
	n := 0
	for _, st := range Bitonic(c.Width).Stages {
		n += len(st)
	}
	return n + (c.Threads+c.ThreadsPerProc-1)/c.ThreadsPerProc
}

// machineConfig returns the machine-level part of the configuration.
func (c Config) machineConfig() machine.Config {
	return machine.Config{
		Seed: c.Seed, Scheme: c.Scheme, Model: c.Model, Mesh: c.Mesh,
		MemParams: c.MemParams, TraceCap: c.TraceCap, Policy: c.Policy,
		Faults: c.Faults, Durable: c.Durable, DropNthAppend: c.DropNthAppend,
		DropNthReplay: c.DropNthReplay, Shards: c.Shards,
	}
}

// Result is one measured point.
type Result struct {
	machine.Result
	Scheme     string
	Threads    int
	Think      uint64
	Throughput float64 // requests per 1000 cycles (Figure 2)
	Bandwidth  float64 // words sent per 10 cycles (Figure 3)
	Messages   uint64  // total runtime+coherence messages
	// P95Latency is the 95th-percentile request latency (upper bound).
	P95Latency uint64
	// EntryUtilization is the mean busy fraction of the first-stage
	// balancer processors — where requests pile up under contention.
	EntryUtilization float64
	// Trace holds the tail of the execution trace when Config.TraceCap
	// was set.
	Trace *sim.Tracer
	// ObjectMoves and Forwards report Emerald-style mobility activity
	// (nonzero only under the ObjMigrate scheme).
	ObjectMoves uint64
	Forwards    uint64
	// Decisions counts a policy run's per-mechanism choices indexed by
	// core.Mechanism.
	Decisions [4]uint64
}

// RunExperiment builds a fresh machine, runs the workload, and reports
// windowed throughput and bandwidth.
func RunExperiment(cfg Config) Result {
	cfg = cfg.WithDefaults()
	m := machine.New("countnet", cfg.machineConfig(), cfg.Procs())
	n := Build(m.RT, m.Mem, cfg.Scheme, cfg.Width)
	m.Attach(n)

	// Balancer processors first, then the requesters' processors.
	numBal := n.NumBalancers()
	stop := cfg.Warmup + cfg.Measure
	rng := m.Eng.Rand().Fork()
	// started counts each requester's operations in its own slot, so
	// requesters on parallel shard lanes never write shared host state.
	started := make([]uint64, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		proc := numBal + i/cfg.ThreadsPerProc
		wire := i % cfg.Width
		col := m.Col(proc)
		m.Mach.Proc(proc).Spawn("requester", sim.Time(rng.Intn(200)), func(th *sim.Thread) {
			task := m.RT.NewTask(th, proc)
			for th.Now() < stop {
				start := th.Now()
				started[i]++
				n.Traverse(task, wire)
				col.CountOp(uint64(th.Now() - start))
				if cfg.Think > 0 {
					task.Think(cfg.Think)
				}
			}
		})
	}

	res := Result{Scheme: cfg.Scheme.Name(), Threads: cfg.Threads, Think: cfg.Think}
	m.Window(cfg.Warmup, stop, &res.Throughput, &res.Bandwidth)
	col := m.Run(&res.Result)
	res.Messages = col.TotalMessages()
	res.P95Latency = col.Latency.Quantile(0.95)
	entry := n.stages[0]
	var u float64
	for p := range entry {
		u += m.Mach.Proc(p).Utilization()
	}
	res.EntryUtilization = u / float64(len(entry))
	res.Trace = m.Tracer
	res.ObjectMoves = m.RT.Objects.Moves
	res.Forwards = col.Forwards
	if res.Policy != "" {
		res.Decisions = n.pol.Decisions()
	}
	if res.Fault != nil || res.Recovery != nil {
		var total uint64
		for _, s := range started {
			total += s
		}
		if err := n.CheckInvariants(total); err != nil {
			res.InvariantErr = err.Error()
		}
	}
	return res
}
