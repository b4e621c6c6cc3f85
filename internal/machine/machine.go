// Package machine builds the simulated machine every application runs
// on. In the paper's §4 evaluation both applications run on one
// Alewife-like machine and only the remote-access annotation changes;
// here one constructor turns a machine-level Config into a serial or a
// clustered run (engine or sharded cluster, processors and their
// speeds, topology and network, fault injector, message runtime and
// shared-memory substrate), and Attach wires the durability store and
// the policy engine into the data structure the application built on
// it. An application's RunExperiment keeps only its workload: the
// machine size, its Build, its requester loop and its own result fields.
package machine

import (
	"fmt"
	"io"
	"os"

	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/gid"
	"compmig/internal/mem"
	"compmig/internal/network"
	"compmig/internal/policy"
	"compmig/internal/profile"
	"compmig/internal/sim"
	"compmig/internal/stats"
	"compmig/internal/store"
)

// Config holds the machine-level fields the applications share. The
// zero value, with a Seed, is the paper's machine: a crossbar, the
// scheme's cost model and the default shared-memory parameters.
type Config struct {
	Seed   uint64
	Scheme core.Scheme
	// Model overrides the scheme-derived cost model.
	Model *cost.Model
	// Mesh selects a near-square 2D mesh with per-hop latency instead of
	// the paper's crossbar.
	Mesh bool
	// MemParams overrides the shared-memory substrate parameters.
	MemParams *mem.Params
	// Hetero gives per-processor speed factors (nil = uniform machine).
	Hetero *cost.Hetero
	// TraceCap, when positive, records the last TraceCap simulation
	// events into Machine.Tracer.
	TraceCap int
	// Policy, when non-empty, selects the remote-access mechanism per
	// operation through an internal/policy engine instead of the static
	// scheme: "static:<mech>", "costmodel", or "bandit[:eps]". The
	// shared-memory substrate is then always built so adaptive policies
	// can route through it. Scheme still supplies the cost model.
	Policy string
	// Faults, when it enables any fault, attaches a deterministic fault
	// injector to the network and installs its processor down windows.
	Faults *fault.Spec
	// Durable forces the WAL/checkpoint store on; it also switches on
	// automatically whenever Faults schedules a wipe window.
	Durable bool
	// DropNthAppend / DropNthReplay are negative-test levers: lose the
	// nth WAL append or skip the nth replayed record, so an application's
	// post-run checker can be shown to fire.
	DropNthAppend uint64
	DropNthReplay uint64
	// Shards, when >= 1, runs the simulation on that many sharded event
	// engines synchronized by conservative lookahead (see sim.Cluster).
	// Output is byte-identical across shard counts, but not to the
	// serial (Shards == 0) engine, whose event-ordering keys differ.
	// Configurations the sharded engine does not support fall back to
	// the serial engine with a notice (see ineligible).
	Shards int
}

// ineligible names the first feature that keeps this configuration off
// the sharded engine, or returns "" when it can run there. Only the CM
// and RPC schemes qualify: an application that requests shards promises
// that every piece of simulated state those schemes touch (objects,
// counters, reply slots) is accessed only at its home processor, so
// partitioning processors into lanes partitions the state. Shared-memory
// and object-migration schemes move state between processors through
// host-side structures, policies and fault plans keep global mutable
// state, and tracing requires one totally ordered event log.
func (c Config) ineligible() string {
	switch c.Scheme.Mechanism {
	case core.Migrate, core.RPC:
	default:
		return "the " + c.Scheme.Mechanism.String() + " scheme moves state between processors through host-side structures"
	}
	switch {
	case c.Scheme.Replication:
		return "replication keeps read-only copies coherent across processors"
	case c.Policy != "":
		return "policy engines keep global mutable state"
	case c.Faults.Enabled():
		return "fault plans keep global mutable state"
	case c.Durable || c.Faults.HasWipe():
		return "the durability store keeps one machine-wide log sequence"
	case c.TraceCap != 0:
		return "tracing needs one totally ordered event log"
	}
	return ""
}

// FallbackNotice receives the one-line notice New emits when a run
// requested the sharded engine but its configuration requires the
// serial one. It defaults to stderr; tests may swap it out. Writes
// happen during host-side setup only, never on a simulated path.
var FallbackNotice io.Writer = os.Stderr

// CheckWindows reports a fault-plan window that targets a processor
// outside a machine of nprocs processors. CLIs call it to reject the
// plan before a run; New panics on the same error.
func CheckWindows(f *fault.Spec, nprocs int) error {
	if f == nil {
		return nil
	}
	for _, w := range f.Windows {
		if w.Proc < 0 || w.Proc >= nprocs {
			return fmt.Errorf("fault window targets proc %d, machine has [0,%d)", w.Proc, nprocs)
		}
	}
	return nil
}

// Machine is one run's simulated machine.
type Machine struct {
	Eng    *sim.Engine // the serial engine, or the cluster's root lane
	Mach   *sim.Machine
	RT     *core.Runtime
	Mem    *mem.System  // nil unless the scheme is SM or a policy runs
	WAL    *store.Store // set by Attach on a durable run
	Tracer *sim.Tracer  // set when Config.TraceCap is positive

	cl    *sim.Cluster // nil on the serial engine
	name  string       // prefixes panics and the fallback notice
	cfg   Config
	model cost.Model
	mp    mem.Params
	cols  []*stats.Collector // one per lane; one on the serial engine
	inj   *fault.Injector
	pol   *policy.Engine
}

// New builds a machine of nprocs processors for the application name:
// the engine, or the sharded cluster when cfg asks for shards and
// qualifies; the processors and their speeds; the topology, network,
// fault injector and its down windows; the message runtime; and the
// shared-memory substrate when the scheme or a policy needs it.
func New(name string, cfg Config, nprocs int) *Machine {
	if err := CheckWindows(cfg.Faults, nprocs); err != nil {
		panic(name + ": " + err.Error())
	}
	m := &Machine{name: name, cfg: cfg, model: cfg.Scheme.Model(), mp: mem.DefaultParams()}
	if cfg.Model != nil {
		m.model = *cfg.Model
	}
	if cfg.MemParams != nil {
		m.mp = *cfg.MemParams
	}
	shards := 0
	if cfg.Shards >= 1 {
		if why := cfg.ineligible(); why != "" {
			// Fall back loudly: a silently ignored shard count makes
			// serial wall-clock look like a sharding regression.
			profile.ShardFallbacks.Add(1)
			fmt.Fprintf(FallbackNotice, "%s: shards=%d ignored, running on the serial engine: %s\n", name, cfg.Shards, why)
		} else {
			shards = min(cfg.Shards, nprocs)
		}
	}

	if shards == 0 {
		m.Eng = sim.NewEngine(cfg.Seed)
		if cfg.TraceCap > 0 {
			m.Tracer = m.Eng.EnableTrace(cfg.TraceCap)
		}
		m.Mach = sim.NewMachine(m.Eng, nprocs)
		m.cols = []*stats.Collector{stats.NewCollector()}
	} else {
		// Measurements are kept in one collector per lane and merged
		// after the run; Window sums them at its edges.
		m.cl = sim.NewCluster(cfg.Seed, shards)
		m.Eng = m.cl.Root()
		m.Mach = m.cl.NewMachine(nprocs)
		m.cols = make([]*stats.Collector, shards)
		for i := range m.cols {
			m.cols[i] = stats.NewCollector()
		}
	}
	if cfg.Hetero.Enabled() {
		for i, f := range cfg.Hetero.Factors(nprocs) {
			m.Mach.Proc(i).SetSpeed(sim.Time(f), cost.SpeedDen)
		}
	}

	topo := topology(cfg.Mesh, nprocs)
	perHop := m.model.NetTransitPerHop
	if cfg.Mesh && perHop == 0 {
		perHop = 2
	}
	net := network.New(m.Eng, topo, m.cols[0], m.model.NetTransitBase, perHop)
	if m.cl != nil {
		net.Shard(m.cl, m.cols)
		m.cl.SetLookahead(sim.Time(network.Lookahead(topo, m.cl.Groups(), m.model.NetTransitBase, perHop)))
	}
	if cfg.Faults.Enabled() {
		// Deliveries are handled by the network's reliability layer, and
		// local work segments stall through the processors' down windows.
		m.inj = fault.NewInjector(cfg.Faults)
		net.AttachFaults(m.inj)
		for _, w := range m.inj.Windows() {
			m.Mach.Proc(w.Proc).AddDownWindow(w.Start, w.End())
		}
	}
	m.RT = core.New(m.Eng, m.Mach, net, m.cols[0], m.model)
	if m.cl != nil {
		m.RT.Shard(m.cl, m.cols)
	}
	if cfg.Scheme.Mechanism == core.SharedMem || cfg.Policy != "" {
		// Policy runs always get a substrate: an adaptive decision may
		// route any operation through shared memory. Building it is
		// host-side only, so static:<mech> runs stay byte-identical to
		// their scheme-based counterparts.
		m.Mem = mem.New(m.Eng, m.Mach, net, m.cols[0], m.mp)
	}
	return m
}

// App is the data structure an application built on the machine: what
// Attach wires the policy engine into.
type App interface {
	AttachPolicy(*policy.Engine)
}

// durable is the state of an object that survives a wipe: every object
// of a durable run. (Its mutations log through Task.Log.)
type durable interface {
	// Seeds returns the records that rebuild the object's build-time
	// state, installed into the checkpoints free of charge.
	Seeds() []store.Record
	// Apply reinstalls one logged record during recovery replay.
	Apply(store.Record)
	// Snapshot encodes the object's full state for a move-in record.
	Snapshot() []uint64
	// Wipe discards the object's volatile state; identity and
	// allocation metadata survive.
	Wipe()
}

// Attach wires the WAL/checkpoint store (on a durable run), then the
// policy engine (on a policy run), into app. Call it after the
// application's Build, so the built objects seed the checkpoints for
// free instead of charging simulated append time for initial state.
// The store's replay, snapshot and wipe hooks dispatch to the objects
// through the object table.
func (m *Machine) Attach(app App) {
	cfg := m.cfg
	if cfg.Durable || cfg.Faults.HasWipe() {
		objs := m.RT.Objects
		m.WAL = store.New(m.Mach, m.cols[0], cost.DefaultDurability(), cfg.Faults.CkptInterval(), objs.Home)
		for _, g := range objs.GIDs() {
			for _, r := range objs.State(g).(durable).Seeds() {
				m.WAL.Seed(r)
			}
		}
		m.WAL.OnApply(func(r store.Record) { objs.State(r.G).(durable).Apply(r) })
		m.WAL.OnSnapshot(func(g gid.GID) []uint64 { return objs.State(g).(durable).Snapshot() })
		m.WAL.OnWipe(func(proc int) int {
			for _, g := range objs.GIDs() {
				if objs.Home(g) == proc {
					objs.State(g).(durable).Wipe()
				}
			}
			return m.RT.WipeVolatile(proc)
		})
		objs.SetJournal(m.WAL)
		m.RT.WAL = m.WAL
		if cfg.DropNthAppend > 0 {
			m.WAL.ScriptDropAppend(cfg.DropNthAppend)
		}
		if cfg.DropNthReplay > 0 {
			m.WAL.ScriptDropReplay(cfg.DropNthReplay)
		}
		if m.inj != nil {
			m.WAL.ScheduleRecovery(m.Eng, m.inj.Windows())
		}
	}
	if cfg.Policy != "" {
		pol, err := policy.New(cfg.Policy, m.model, m.mp, m.Eng, m.cols[0], m.Mach.N(), cfg.Seed)
		if err != nil {
			panic(m.name + ": " + err.Error())
		}
		pol.AttachMem(m.Mem)
		if cfg.Hetero.Enabled() {
			factors := cfg.Hetero.Factors(m.Mach.N())
			speeds := make([]float64, len(factors))
			for i, f := range factors {
				speeds[i] = float64(f) / float64(cost.SpeedDen)
			}
			pol.SetSpeeds(speeds)
		}
		m.RT.Obs = pol
		app.AttachPolicy(pol)
		m.pol = pol
	}
}

// Col returns the collector processor proc's lane counts into: the
// serial engine's one collector, or proc's lane collector on a cluster.
// A requester spawned with Mach.Proc(proc).Spawn (on the serial engine
// identical to Engine.Spawn) counts its operations here, so parallel
// lanes never share a collector.
func (m *Machine) Col(proc int) *stats.Collector {
	if m.cl == nil {
		return m.cols[0]
	}
	return m.cols[m.cl.LaneOf(proc)]
}

// Window measures the operations and words counted across every lane
// between cycles start and stop, and stores the paper's two rates when
// the run passes stop: throughput in operations per 1000 cycles into
// *tput and bandwidth in words per 10 cycles into *bw. On the serial
// engine the two edges are events queued now, behind everything already
// queued for the same cycle, so call Window after spawning the
// requesters: that is the event order every rendered table was measured
// with. On a cluster they are barrier callbacks,
// which sum the lanes' integer counters, so the rates are bitwise
// identical at every shard count.
func (m *Machine) Window(start, stop sim.Time, tput, bw *float64) {
	var ops0, words0 uint64
	open := func() { ops0, words0 = m.sums() }
	shut := func() {
		if stop == start {
			return
		}
		ops, words := m.sums()
		*tput = float64(ops-ops0) * 1000 / float64(stop-start)
		*bw = float64(words-words0) * 10 / float64(stop-start)
	}
	if m.cl != nil {
		m.cl.AtBarrier(start, open)
		m.cl.AtBarrier(stop, shut)
		return
	}
	m.Eng.At(start, open)
	m.Eng.At(stop, shut)
}

// sums totals the operations and words counted across the lanes.
func (m *Machine) sums() (ops, words uint64) {
	for _, c := range m.cols {
		ops += c.Ops
		words += c.WordsSent
	}
	return ops, words
}

// Result holds the fields every application's result fills the same
// way; Run fills all but InvariantErr, the application's own checker's
// verdict.
type Result struct {
	Ops         uint64  // operations completed
	MeanLatency float64 // cycles per operation
	WordsPerOp  float64 // words transmitted per high-level operation (§4.4)
	HitRate     float64 // shared-memory cache hit rate
	// Policy names the policy a policy run used ("" for static schemes);
	// PolicyStats is the engine's final statistics dump, and Decisions
	// counts its per-mechanism choices across every call site, indexed
	// by core.Mechanism.
	Policy      string
	PolicyStats *policy.Stats
	Decisions   [4]uint64
	// ObjectMoves and Forwards report Emerald-style mobility activity
	// (nonzero only when objects migrate).
	ObjectMoves uint64
	Forwards    uint64
	// Trace holds the tail of the execution trace when Config.TraceCap
	// was set.
	Trace *sim.Tracer
	// Fault holds the injected-fault and recovery counters of a faulty
	// run (nil when no fault plan was active).
	Fault *fault.Counters
	// Recovery holds the durability-store counters of a durable run
	// (nil when the store was off).
	Recovery *store.Counters
	// InvariantErr is the post-run invariant checker's verdict ("" = all
	// invariants held).
	InvariantErr string
}

// Run runs the simulation until it quiesces, fills r, and returns the
// lane collectors merged into one (the serial engine's own collector)
// for the application's own result fields.
func (m *Machine) Run(r *Result) *stats.Collector {
	defer m.Mem.Release()
	var err error
	if m.cl != nil {
		err = m.cl.Run()
	} else {
		err = m.Eng.Run()
	}
	if err != nil {
		panic(m.name + ": experiment did not quiesce: " + err.Error())
	}
	col := m.cols[0]
	if m.cl != nil {
		col = stats.NewCollector()
		for _, c := range m.cols {
			col.AddFrom(c)
		}
	}

	r.Ops = col.Ops
	r.MeanLatency = col.MeanOpLatency()
	if col.Ops > 0 {
		r.WordsPerOp = float64(col.WordsSent) / float64(col.Ops)
	}
	r.HitRate = col.HitRate()
	r.ObjectMoves = m.RT.Objects.Moves
	r.Forwards = col.Forwards
	r.Trace = m.Tracer
	if m.pol != nil {
		r.Policy = m.pol.Name()
		st := m.pol.Stats()
		r.PolicyStats = &st
		r.Decisions = m.pol.Decisions()
	}
	if m.inj != nil {
		c := m.inj.Counters
		r.Fault = &c
		m.inj.FlushProfile()
	}
	if m.WAL != nil {
		c := m.WAL.Counters
		r.Recovery = &c
		m.WAL.FlushProfile()
	}
	return col
}

// topology picks the interconnect: the paper's flat crossbar, or a
// near-square 2D mesh for the topology ablation.
func topology(mesh bool, nprocs int) network.Topology {
	if !mesh {
		return network.Crossbar{}
	}
	w := 1
	for w*w < nprocs {
		w++
	}
	h := (nprocs + w - 1) / w
	return network.NewMesh(w, h)
}
