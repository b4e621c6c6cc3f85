// Package profile collects host-side (wall clock, not simulated)
// per-subsystem counters so the simulator's own performance is
// observable: how often each fast path fires, how much protocol work
// still takes the event-driven slow path, and where host nanoseconds go.
//
// Counts are cheap and collected unconditionally — subsystems either
// increment a process-wide atomic directly or batch per-run tallies and
// flush them once (see internal/mem). Nanosecond timing is only recorded
// while Enable(true) is in effect (the paperfigs -profile flag), because
// calling time.Now around hot paths is itself a measurable cost.
package profile

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

var enabled atomic.Bool

// Enable turns nanosecond timing on or off process-wide.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether timing is being collected.
func Enabled() bool { return enabled.Load() }

// Section is one profiled subsystem entry point. Sections are declared
// below with their report names; declaring one is all it takes to appear
// in Snapshot, Report and every bench report.
type Section struct {
	name  string
	Count atomic.Uint64
	Ns    atomic.Int64
}

// Add records n entries.
func (s *Section) Add(n uint64) { s.Count.Add(n) }

// AddTimed records n entries that took d of host time.
func (s *Section) AddTimed(n uint64, d time.Duration) {
	s.Count.Add(n)
	s.Ns.Add(d.Nanoseconds())
}

// Time starts a host-time measurement and returns the stop function that
// records n entries with the elapsed time; the intended use is
// `defer sec.Time(1)()`. Keeping the time.Now calls inside this package
// is part of the simvet nodeterminism contract: simulation-charged
// packages never touch the host clock directly, they only bracket a
// region with a profile timer that is inert (and cheap) unless the
// -profile flag enabled timing. Host timing can never perturb simulated
// event order either way — it observes the run, the event heap orders it.
func (s *Section) Time(n uint64) func() {
	start := time.Now()
	return func() { s.AddTimed(n, time.Since(start)) }
}

// TimeNs is Time for call sites that batch their counts separately: the
// stop function adds only the elapsed nanoseconds.
func (s *Section) TimeNs() func() {
	start := time.Now()
	return func() { s.Ns.Add(time.Since(start).Nanoseconds()) }
}

// The profiled sections, in Snapshot order. Mem counts are
// line-granularity accesses; the slow-path timing is inclusive — a
// blocked access's clock keeps running while the engine loop runs other
// events and threads, so overlapping slow accesses double-count wall
// time. Use the counts for exact attribution and the timings for
// relative weight.
var (
	MemFastHits    = section("mem.fast_hits")      // accesses satisfied by the inline all-hit path
	memFastLocal   = section("mem.fast_local")     // always 0: kept because bench/ reads the name; nothing completes a miss inline
	MemSlow        = section("mem.slow")           // accesses through the event-driven protocol
	NetSends       = section("net.sends")          // messages injected into the simulated network
	HeapOps        = section("engine.heap_pushes") // events entering the ordered queue, a wheel slot or the heap (the name predates the wheel; bench/ reads it)
	EngineHandoffs = section("engine.handoffs")    // coroutine switches: one into a carrier per thread wakeup, one out per park or exit
	PolicyRPC      = section("policy.rpc")         // policy decisions that chose RPC
	PolicyCM       = section("policy.cm")          // policy decisions that chose computation migration
	PolicySM       = section("policy.sm")          // policy decisions that chose shared memory
	PolicyOM       = section("policy.om")          // policy decisions that chose object migration

	FaultDrops       = section("fault.drops")       // injected message losses (incl. crash windows, acks)
	FaultDups        = section("fault.dups")        // injected message duplications
	FaultRetransmits = section("fault.retransmits") // reliability-layer retransmissions
	FaultTimeouts    = section("fault.timeouts")    // retransmission timer firings
	FaultGiveUps     = section("fault.giveups")     // messages abandoned after the attempt budget

	ShardFallbacks = section("shard.fallbacks") // runs that requested shards but fell back to the serial engine
	ShardWindows   = section("shard.windows")   // lookahead windows executed by sharded clusters
	ShardEvents    = section("shard.events")    // events processed across cluster lanes
	ShardNulls     = section("shard.nulls")     // lane-windows that processed nothing (pure synchronization)
	ShardCross     = section("shard.cross")     // messages routed between cluster lanes

	StoreAppends         = section("store.wal_appends")      // WAL records appended
	StoreCheckpointBytes = section("store.checkpoint_bytes") // bytes written by checkpoint folds
	StoreReplays         = section("store.replay_events")    // records re-applied during crash recovery
	StoreRecoveryCycles  = section("store.recovery_cycles")  // simulated cycles spent restoring + replaying
)

// sections lists every declared section in declaration order.
var sections []*Section

func section(name string) *Section {
	s := &Section{name: name}
	sections = append(sections, s)
	return s
}

// Stat is one row of a snapshot.
type Stat struct {
	Name  string
	Count uint64
	Ns    int64
}

// Snapshot returns the current totals in declaration order.
func Snapshot() []Stat {
	out := make([]Stat, len(sections))
	for i, s := range sections {
		out[i] = Stat{s.name, s.Count.Load(), s.Ns.Load()}
	}
	return out
}

// Report formats the current totals as an aligned table.
func Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %12s\n", "section", "count", "host ms")
	for _, s := range Snapshot() {
		fmt.Fprintf(&b, "%-22s %12d %12.1f\n", s.Name, s.Count, float64(s.Ns)/1e6)
	}
	return b.String()
}
