// Package store is the durability substrate: a per-processor
// append-only write-ahead log plus periodic checkpoints, both simulated
// structures whose appends, group-commit fsync barriers, checkpoint
// folds, and crash-recovery replays are charged in simulated cycles
// through cost.Durability — durability overhead competes for processor
// time like every other subsystem.
//
// The contract that makes the guarantee hold is host-side atomicity:
// a record is registered in its home processor's log at the moment the
// host-level mutation happens, before any simulated-time yield, so at
// every yield point a processor's object state equals the fold of its
// log. A wipe fault (fault.Window.Wipe) can then discard the volatile
// state at any cycle and recovery rebuilds exactly what was there:
// restore the checkpoint, replay the WAL suffix in append order, and
// re-register the processor's objects — all in simulated time booked on
// the recovering processor, so work queued behind the outage waits for
// replay to finish.
//
// Recovery is deterministic: checkpoint entries are applied in sorted
// key order, the suffix in append order, and no PRNG is consulted, so
// the same seed reproduces the same recovery trace byte-for-byte.
package store

import (
	"fmt"
	"sort"

	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/gid"
	"compmig/internal/profile"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// Kind tags a log record.
type Kind uint8

const (
	// KindCreate records an object's birth; replay re-registers it.
	KindCreate Kind = iota
	// KindState records an object (or sub-key) state change: the app
	// payload lives in Sub/A/B and Blob, and the app's Apply hook
	// reinstalls it during replay.
	KindState
	// KindMoveOut records an object leaving the processor; it cancels the
	// object's earlier entries when the log folds into a checkpoint.
	KindMoveOut
	// KindMoveIn records an object arriving with a full state snapshot in
	// Blob; replay reinstalls the snapshot like a KindState image.
	KindMoveIn
)

func (k Kind) String() string {
	switch k {
	case KindCreate:
		return "create"
	case KindState:
		return "state"
	case KindMoveOut:
		return "move-out"
	case KindMoveIn:
		return "move-in"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// headerWords is a record's fixed wire size in 64-bit words: LSN, kind
// tag + GID, Sub, A, B. The LSN is priced but not stored: a record's
// position in its processor's suffix is its sequence number.
const headerWords = 5

// Record is one WAL entry, filled in by the appender. Sub distinguishes
// independent sub-states of one object (a KV partition's key); A and B
// are small scalar payloads and Blob carries bulk images (B-tree node
// encodings, move snapshots).
type Record struct {
	Kind Kind
	G    gid.GID
	Sub  uint64
	A, B uint64
	Blob []uint64
}

// Words returns the record's size in 64-bit words.
func (r Record) Words() uint64 { return headerWords + uint64(len(r.Blob)) }

// ckptKey identifies a record's slot in the checkpoint fold: later
// records for the same (object, sub-key) supersede earlier ones.
type ckptKey struct {
	g   gid.GID
	sub uint64
}

// plog is one processor's log: the checkpoint (folded prefix) plus the
// WAL suffix appended since.
type plog struct {
	ckpt     map[ckptKey]Record
	suffix   []Record
	appends  uint64   // appends since the last fsync barrier
	lastCkpt sim.Time // cycle of the last checkpoint fold
}

// Counters tallies one run's durability activity. Plain integers: a
// durable run is single-goroutine (serial engine only).
type Counters struct {
	Appends         uint64 // WAL records appended
	AppendWords     uint64 // total words appended
	Fsyncs          uint64 // group-commit barriers forced
	Checkpoints     uint64 // checkpoint folds
	CheckpointWords uint64 // live words written by checkpoint folds
	Wipes           uint64 // wipe windows recovered from
	Restores        uint64 // checkpoint entries applied during recovery
	Replays         uint64 // WAL-suffix records re-applied during recovery
	Reregistered    uint64 // objects re-registered during recovery
	ReplayDropped   uint64 // records lost to the ScriptDropReplay test hook
	AppendDropped   uint64 // records lost to the ScriptDropAppend test hook
	RecoveryCycles  uint64 // simulated cycles spent in recovery
}

// Store is the machine-wide durability layer: one log per processor.
// It implements object.Journal so structural events (creations, moves)
// log themselves.
type Store struct {
	mach     *sim.Machine
	col      *stats.Collector
	prices   cost.Durability
	interval sim.Time
	logs     []*plog
	home     func(gid.GID) int

	// apply reinstalls one record's state during replay (app hook).
	apply func(Record)
	// wipeHook discards a processor's volatile app + runtime state at the
	// start of a wipe window, returning the number of objects the
	// recovery must re-register.
	wipeHook func(proc int) int
	// snapshot encodes an object's full state for a KindMoveIn record;
	// required only by apps that move objects while durable.
	snapshot func(g gid.GID) []uint64

	Counters Counters

	// Test hooks: 1-based global ordinals of a record to lose.
	dropAppend, dropReplay uint64
	nAppend, nReplay       uint64
}

// New creates a store for the machine, pricing operations with prices
// and folding each log into a checkpoint every interval cycles
// (0 means cost.DefaultCkptInterval). home resolves a GID's current
// home processor (object.Space.Home); records always land in their home
// processor's log. A durable run must use the serial engine: the store
// keeps one append sequence per processor and one collector.
func New(mach *sim.Machine, col *stats.Collector, prices cost.Durability, interval uint64, home func(gid.GID) int) *Store {
	if interval == 0 {
		interval = cost.DefaultCkptInterval
	}
	s := &Store{
		mach: mach, col: col, prices: prices,
		interval: sim.Time(interval),
		logs:     make([]*plog, mach.N()),
		home:     home,
	}
	for i := range s.logs {
		s.logs[i] = &plog{ckpt: make(map[ckptKey]Record)}
	}
	return s
}

// OnApply installs the app's replay hook: reinstall one record's state.
func (s *Store) OnApply(fn func(Record)) { s.apply = fn }

// OnWipe installs the wipe hook: discard processor proc's volatile
// state and return the number of objects recovery re-registers.
func (s *Store) OnWipe(fn func(proc int) int) { s.wipeHook = fn }

// OnSnapshot installs the app's state encoder for object moves.
func (s *Store) OnSnapshot(fn func(g gid.GID) []uint64) { s.snapshot = fn }

// ScriptDropAppend makes the nth (1-based, counted across all
// processors) appended record vanish before it reaches the log — the
// negative-test lever for the durability checkers.
func (s *Store) ScriptDropAppend(nth uint64) { s.dropAppend = nth }

// ScriptDropReplay makes the nth (1-based) replayed suffix record be
// skipped during recovery.
func (s *Store) ScriptDropReplay(nth uint64) { s.dropReplay = nth }

// register appends r to processor p's log host-side and returns the
// simulated cycles the append costs (append + any fsync barrier + any
// checkpoint fold it triggers). It must run at the host-level mutation
// point, before any simulated-time yield.
func (s *Store) register(p int, r Record) uint64 {
	lg := s.logs[p]
	s.nAppend++
	if s.nAppend == s.dropAppend {
		// The record is charged but never durably written: the "write
		// acknowledged before reaching the log" bug the checkers exist to
		// catch.
		s.Counters.AppendDropped++
		return s.prices.Append(r.Words())
	}
	lg.suffix = append(lg.suffix, r)
	s.Counters.Appends++
	s.Counters.AppendWords += r.Words()
	cycles := s.prices.Append(r.Words())
	lg.appends++
	if lg.appends >= s.prices.GroupSize() {
		lg.appends = 0
		s.Counters.Fsyncs++
		cycles += s.prices.Fsync
	}
	if now := s.mach.Proc(p).Engine().Now(); now >= lg.lastCkpt+s.interval {
		cycles += s.checkpoint(p, now)
	}
	return cycles
}

// checkpoint folds processor p's WAL suffix into its checkpoint and
// returns the fold's cycle cost.
func (s *Store) checkpoint(p int, now sim.Time) uint64 {
	lg := s.logs[p]
	for _, r := range lg.suffix {
		switch r.Kind {
		case KindCreate:
			// Metadata-only records: their durable effect is complete once
			// logged; the fold keeps no entry (recovery re-registers objects
			// from the live-object count, not from creates).
		case KindMoveOut:
			// The object left this processor: its state is the destination
			// log's responsibility now.
			for k := range lg.ckpt {
				if k.g == r.G {
					delete(lg.ckpt, k)
				}
			}
		default:
			lg.ckpt[ckptKey{r.G, r.Sub}] = r
		}
	}
	lg.suffix = lg.suffix[:0]
	lg.lastCkpt = now
	var live uint64
	for _, r := range lg.ckpt {
		live += r.Words()
	}
	s.Counters.Checkpoints++
	s.Counters.CheckpointWords += live
	return s.prices.Checkpoint(live)
}

// Append durably logs recs at their home processors and blocks the
// calling thread for the records homed on processor at — the
// ack-after-durable path: the mutation is not acknowledged until its
// log write is paid for. Records homed elsewhere (a frontend mutating a
// remote partition through shared memory) are charged asynchronously at
// their homes. All records are registered host-side before any yield,
// so a multi-record mutation (a node split's two images) is atomic with
// respect to wipes.
func (s *Store) Append(th *sim.Thread, at int, recs ...Record) {
	var local uint64
	for _, r := range recs {
		p := s.home(r.G)
		c := s.register(p, r)
		if p == at {
			local += c
		} else {
			s.chargeAsync(p, c)
		}
	}
	if local > 0 {
		s.col.AddCycles(stats.CatDurability, local)
		th.Exec(s.mach.Proc(at), sim.Time(local))
	}
}

// AppendAsync durably logs recs at their home processors, charging each
// home asynchronously without blocking any thread — for records emitted
// from contexts with no thread handle (journal hooks) or where the
// mutator should not wait for the remote log (move bookkeeping).
func (s *Store) AppendAsync(recs ...Record) {
	for _, r := range recs {
		p := s.home(r.G)
		s.chargeAsync(p, s.register(p, r))
	}
}

// Seed installs a base record — an object's initial state at
// build time — directly into its home checkpoint, free of charge:
// pre-run population is loaded state, not runtime work.
func (s *Store) Seed(r Record) {
	p := s.home(r.G)
	lg := s.logs[p]
	lg.ckpt[ckptKey{r.G, r.Sub}] = r
}

func (s *Store) chargeAsync(p int, cycles uint64) {
	if cycles == 0 {
		return
	}
	s.col.AddCycles(stats.CatDurability, cycles)
	s.mach.Proc(p).ExecAsync(sim.Time(cycles), nil)
}

// ScheduleRecovery arms one recovery event per wipe window: at the
// window's start the processor's volatile state is discarded and
// rebuilt from checkpoint + WAL suffix. Scheduling at setup time gives
// the wipe an earlier event sequence than any same-cycle delivery, so
// retransmissions that land exactly at the window start see the
// post-wipe state. The recovery's cycle cost is booked on the wiped
// processor; sim down windows push the booking past the window end, and
// deliveries queued behind the outage then serialize behind the replay.
func (s *Store) ScheduleRecovery(eng *sim.Engine, windows []fault.Window) {
	for _, w := range windows {
		if !w.Wipe {
			continue
		}
		proc := w.Proc
		eng.At(sim.Time(w.Start), func() { s.recoverProc(proc) })
	}
}

// recoverProc wipes processor proc and replays its log. Wipe and replay
// are host-atomic — by the time any other event runs, the processor's
// state is fully rebuilt — while the simulated recovery time is booked
// on the processor, stalling its post-window work behind the replay.
func (s *Store) recoverProc(proc int) {
	s.Counters.Wipes++
	var cycles uint64
	reregister := 0
	if s.wipeHook != nil {
		reregister = s.wipeHook(proc)
	}

	lg := s.logs[proc]
	// Restore the checkpoint in sorted key order (determinism): only
	// entries still homed here apply — an entry whose object has since
	// moved away is the destination log's responsibility.
	keys := make([]ckptKey, 0, len(lg.ckpt))
	for k := range lg.ckpt {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].g != keys[j].g {
			return keys[i].g < keys[j].g
		}
		return keys[i].sub < keys[j].sub
	})
	for _, k := range keys {
		if s.home(k.g) != proc {
			continue
		}
		r := lg.ckpt[k]
		s.applyRecord(r)
		s.Counters.Restores++
		cycles += s.prices.RestorePerWord * r.Words()
	}
	// Replay the WAL suffix in append order.
	for _, r := range lg.suffix {
		if s.home(r.G) != proc {
			continue
		}
		s.nReplay++
		if s.nReplay == s.dropReplay {
			s.Counters.ReplayDropped++
			continue
		}
		s.applyRecord(r)
		s.Counters.Replays++
		cycles += s.prices.Replay(r.Words())
	}
	s.Counters.Reregistered += uint64(reregister)
	cycles += s.prices.Reregister * uint64(reregister)
	s.Counters.RecoveryCycles += cycles
	s.col.AddCycles(stats.CatDurability, cycles)
	s.mach.Proc(proc).ExecAsync(sim.Time(cycles), nil)
}

// applyRecord hands one record to the app's replay hook. Structural
// records with no app state short-circuit.
func (s *Store) applyRecord(r Record) {
	switch r.Kind {
	case KindCreate, KindMoveOut:
		return
	}
	if s.apply == nil {
		panic("store: replaying app state without an OnApply hook")
	}
	s.apply(r)
}

// ObjectNew implements object.Journal: creations log themselves at the
// object's home.
func (s *Store) ObjectNew(g gid.GID, home int) {
	s.AppendAsync(Record{Kind: KindCreate, G: g})
}

// ObjectMove implements object.Journal: a move-out record at the old
// home cancels the object's entries there, and a move-in record with a
// full state snapshot seeds the new home's log. The hook runs after
// object.Space updated the home, so AppendAsync's home resolution
// already answers the destination for both the move-in and any later
// state records.
func (s *Store) ObjectMove(g gid.GID, from, to int) {
	if s.snapshot == nil {
		panic("store: object moved while durable but no OnSnapshot hook is installed")
	}
	out := Record{Kind: KindMoveOut, G: g}
	s.chargeAsync(from, s.register(from, out))
	in := Record{Kind: KindMoveIn, G: g, Blob: s.snapshot(g)}
	s.chargeAsync(to, s.register(to, in))
}

// FlushProfile adds the run's durability counters to the process-wide
// profile sections (reported by paperfigs -profile and bench JSON).
func (s *Store) FlushProfile() {
	c := &s.Counters
	profile.StoreAppends.Add(c.Appends)
	profile.StoreCheckpointBytes.Add(c.CheckpointWords * 8)
	profile.StoreReplays.Add(c.Replays)
	profile.StoreRecoveryCycles.Add(c.RecoveryCycles)
}
