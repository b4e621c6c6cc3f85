package btree

import (
	"slices"
	"sync" //simvet:allow host-side workload memoization (GenKeys cache) shared across harness workers; keys are a pure function of the PRNG state

	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/machine"
	"compmig/internal/mem"
	"compmig/internal/repl"
	"compmig/internal/sim"
)

// Config describes one B-tree run (one row of Tables 1-4).
type Config struct {
	Params
	InitialKeys int     // 10000 in the paper
	Threads     int     // 16, each on its own processor
	Think       uint64  // 0 or 10000 cycles
	LookupFrac  float64 // fraction of operations that are lookups
	KeySpace    uint64  // keys drawn uniformly from [1, KeySpace]

	Warmup  sim.Time
	Measure sim.Time

	// SMPrefetch enables key-array prefetching on shared-memory descents.
	SMPrefetch bool
	// HotOpFrac and HotKeyFrac skew the workload: HotOpFrac of the
	// operations draw their key from the bottom HotKeyFrac of the key
	// space (both zero = the paper's uniform workload).
	HotOpFrac  float64
	HotKeyFrac float64

	// The machine: these fields mean what the machine.Config fields of
	// the same names mean (nil/false reproduce the paper's machine). A
	// faulty or durable run also verifies the tree's key set; a wipe
	// window turns durability on because a loss-inducing crash without
	// it would trivially violate that check. The B-tree always runs on
	// the serial engine: every operation descends through the shared
	// root, so processor lanes could not partition its state.
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
}

// WithDefaults fills unset fields with the paper's parameters.
func (c Config) WithDefaults() Config {
	if c.Fanout == 0 {
		c.Params = DefaultParams()
	}
	if c.InitialKeys == 0 {
		c.InitialKeys = 10000
	}
	if c.Threads == 0 {
		c.Threads = 16
	}
	if c.LookupFrac == 0 {
		c.LookupFrac = 0.5
	}
	if c.KeySpace == 0 {
		c.KeySpace = 1 << 30
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
	return c
}

// Procs returns the machine size: the node processors, then one
// processor per requester thread.
func (c Config) Procs() int {
	c = c.WithDefaults()
	return c.NodeProcs + c.Threads
}

// machineConfig returns the machine-level part of the configuration.
func (c Config) machineConfig() machine.Config {
	return machine.Config{
		Seed: c.Seed, Scheme: c.Scheme, Model: c.Model, Mesh: c.Mesh,
		MemParams: c.MemParams, TraceCap: c.TraceCap, Policy: c.Policy,
		Faults: c.Faults, Durable: c.Durable, DropNthAppend: c.DropNthAppend,
		DropNthReplay: c.DropNthReplay,
	}
}

// Result is one measured row.
type Result struct {
	machine.Result
	Scheme       string
	Think        uint64
	Throughput   float64 // operations per 1000 cycles (Tables 1, 3)
	Bandwidth    float64 // words per 10 cycles (Tables 2, 4)
	RootChildren int
	Height       int
	// P95Latency is the 95th-percentile operation latency (upper bound).
	P95Latency uint64
	// RootUtilization is the busy fraction of the root node's processor —
	// direct evidence of the paper's root-bottleneck analysis (§4.2).
	RootUtilization float64
}

// RunExperiment builds a fresh machine and tree, runs the mixed
// lookup/insert workload, and reports windowed throughput and bandwidth.
// A faulty or durable run then verifies the tree's key set.
func RunExperiment(cfg Config) Result {
	cfg = cfg.WithDefaults()
	m := machine.New("btree", cfg.machineConfig(), cfg.Procs())
	var tbl *repl.Table
	if cfg.Scheme.Replication {
		tbl = repl.NewTable(m.RT)
	}
	keyRNG := m.Eng.Rand().Fork()
	initialKeys := GenKeys(keyRNG, cfg.InitialKeys, cfg.KeySpace)
	tr := Build(m.RT, m.Mem, tbl, cfg.Scheme, cfg.Params, initialKeys)
	tr.SMPrefetch = cfg.SMPrefetch
	m.Attach(tr)

	// inserted tracks keys the workload successfully added, for the
	// post-run key-set integrity check. Allocated only under faults or
	// durability so the plain path stays untouched.
	var inserted map[uint64]struct{}
	if cfg.Faults.Enabled() || cfg.Durable {
		inserted = make(map[uint64]struct{})
	}

	stop := cfg.Warmup + cfg.Measure
	for i := 0; i < cfg.Threads; i++ {
		proc := cfg.NodeProcs + i
		rng := keyRNG.Fork()
		col := m.Col(proc)
		m.Mach.Proc(proc).Spawn("requester", sim.Time(rng.Intn(300)), func(th *sim.Thread) {
			task := m.RT.NewTask(th, proc)
			for th.Now() < stop {
				start := th.Now()
				span := cfg.KeySpace
				if cfg.HotOpFrac > 0 && rng.Float64() < cfg.HotOpFrac {
					span = uint64(float64(cfg.KeySpace) * cfg.HotKeyFrac)
					if span == 0 {
						span = 1
					}
				}
				key := 1 + rng.Uint64n(span)
				if rng.Float64() < cfg.LookupFrac {
					tr.Lookup(task, key)
				} else if added := tr.Insert(task, key); added && inserted != nil {
					inserted[key] = struct{}{}
				}
				col.CountOp(uint64(th.Now() - start))
				if cfg.Think > 0 {
					task.Think(cfg.Think)
				}
			}
		})
	}

	res := Result{Scheme: cfg.Scheme.Name(), Think: cfg.Think}
	m.Window(cfg.Warmup, stop, &res.Throughput, &res.Bandwidth)
	col := m.Run(&res.Result)
	res.RootChildren = tr.RootChildren()
	res.Height = tr.Height()
	res.P95Latency = col.Latency.Quantile(0.95)
	res.RootUtilization = m.Mach.Proc(tr.Root().Home()).Utilization()
	// Durable fault-free runs verify too: the WAL path must not perturb
	// tree contents.
	if res.Fault != nil || res.Recovery != nil {
		if err := tr.VerifyKeySet(initialKeys, inserted); err != nil {
			res.InvariantErr = err.Error()
		}
	}
	return res
}

// keyCache memoizes GenKeys results: every run of a table sweep draws
// the same workload from an identically-seeded fork, so the key set is
// generated once and copied out afterwards. The key is the generator's
// exact state plus the arguments, which fully determine the output.
// Guarded by a mutex because harness workers build experiments
// concurrently.
type keyCacheKey struct {
	state [4]uint64
	n     int
	space uint64
}

// keyCacheEntry records the generated keys and how many Uint64 draws
// producing them consumed (n plus duplicate retries), so a cache hit can
// leave rng in exactly the state generation would have: callers fork
// workload streams off the generator afterwards.
type keyCacheEntry struct {
	keys  []uint64
	draws int
}

var (
	keyCacheMu sync.Mutex
	keyCache   = map[keyCacheKey]keyCacheEntry{}
)

// GenKeys draws n distinct sorted keys uniformly from [1, space]. The
// result is a pure function of (rng state, n, space) and is memoized;
// rng is always left in the same state as an uncached generation.
func GenKeys(rng *sim.PRNG, n int, space uint64) []uint64 {
	ck := keyCacheKey{state: rng.State(), n: n, space: space}
	keyCacheMu.Lock()
	cached, hit := keyCache[ck]
	keyCacheMu.Unlock()
	if hit {
		for i := 0; i < cached.draws; i++ {
			rng.Uint64()
		}
		// Copy with capacity exactly n, matching what generation builds.
		out := make([]uint64, len(cached.keys))
		copy(out, cached.keys)
		return out
	}
	seen := make(map[uint64]struct{}, n)
	keys := make([]uint64, 0, n)
	draws := 0
	for len(keys) < n {
		k := 1 + rng.Uint64n(space)
		draws++
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	keyCacheMu.Lock()
	keyCache[ck] = keyCacheEntry{keys: slices.Clone(keys), draws: draws}
	keyCacheMu.Unlock()
	return keys
}
