//go:generate go run compmig/cmd/contgen -in app.go

// Package kv is a hash-partitioned key/value (session) store on the
// core runtime — the serving-system counterpart to the paper's two
// closed-loop apps. Records are homed by key partition on the storage
// processors; every point operation makes Touches record accesses at
// the partition's home (session header, value, metadata), which is the
// access run the mechanism tradeoff prices: per-access RPCs, one
// migration of the request frame, or cache-line reads through shared
// memory. Range scans run over a B-link tree index of the key
// population (internal/apps/btree).
package kv

import (
	"fmt"

	"compmig/internal/advisor"
	"compmig/internal/apps/btree"
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/mem"
	"compmig/internal/msg"
	"compmig/internal/policy"
	"compmig/internal/store"
)

// Params configures a store instance.
type Params struct {
	StoreProcs  int // partitions, one per storage processor [0, StoreProcs)
	Touches     int // record accesses per point operation
	IndexFanout int // fanout of the range-scan index
}

// DefaultParams returns the serving-system defaults: eight storage
// processors, three record accesses per operation (header, value,
// metadata), and a fanout-16 index.
func DefaultParams() Params {
	return Params{StoreProcs: 8, Touches: 3, IndexFanout: 16}
}

// partState is one partition's host state: the version counter per key
// and, under shared memory, the record-line image.
type partState struct {
	vals map[uint64]uint64 // keyID -> version (0 = never written)
	slot map[uint64]int    // keyID -> record slot in the SM image
	base mem.Addr          // SM image base (Touches lines per record)
}

// Store is a distributed KV store bound to a runtime and a scheme.
type Store struct {
	rt     *core.Runtime
	shm    *mem.System // nil unless the scheme is SharedMem or a policy run
	scheme core.Scheme
	p      Params

	parts  []gid.GID // partition objects, parts[i] homed on processor i
	states []*partState
	byGID  map[gid.GID]*partState
	keys   []uint64 // keyID -> indexed key value (sorted unique)
	index  *btree.Tree

	// wal, when set, receives a version record on every acked put and
	// node images from the index (see durable.go).
	wal *store.Store

	// AccessCycles is the user-code cost of one record access.
	AccessCycles uint64

	mTouch core.MethodID
	mGet   core.MethodID
	mPut   core.MethodID
	cOp    core.ContID

	// Per-call-site policy selectors (nil = static scheme dispatch).
	polGet  *policy.Site
	polPut  *policy.Site
	polScan *policy.Site
}

// Build creates the store over the given sorted-unique key population.
// Key i of the population is addressed by keyID i in [0, len(keys)).
// The range-scan index lives on the same storage processors as the
// partitions.
func Build(rt *core.Runtime, shm *mem.System, scheme core.Scheme, p Params, keys []uint64) *Store {
	if scheme.Mechanism == core.ObjMigrate {
		panic("kv: object migration is not a supported scheme")
	}
	if scheme.Mechanism == core.SharedMem && shm == nil {
		panic("kv: SharedMem scheme needs a mem.System")
	}
	if p.StoreProcs <= 0 || p.Touches <= 0 || len(keys) == 0 {
		panic("kv: bad params")
	}
	s := &Store{
		rt: rt, shm: shm, scheme: scheme, p: p,
		keys:         append([]uint64{}, keys...),
		AccessCycles: 40,
	}

	// Partitions, one per storage processor; keys assigned by hash so
	// skewed key popularity still spreads across partitions.
	s.parts = make([]gid.GID, p.StoreProcs)
	states := make([]*partState, p.StoreProcs)
	s.byGID = make(map[gid.GID]*partState, p.StoreProcs)
	for i := range s.parts {
		states[i] = &partState{vals: make(map[uint64]uint64), slot: make(map[uint64]int)}
		s.parts[i] = rt.Objects.New(i, states[i])
		s.byGID[s.parts[i]] = states[i]
	}
	s.states = states
	for id := range s.keys {
		ps := states[s.partOf(uint64(id))]
		ps.slot[uint64(id)] = len(ps.slot)
	}
	if shm != nil {
		for i, ps := range states {
			records := len(ps.slot)
			if records == 0 {
				records = 1
			}
			ps.base = shm.Alloc(i, uint64(records*p.Touches*mem.LineBytes))
		}
	}

	s.index = btree.Build(rt, shm, nil, scheme,
		btree.Params{Fanout: p.IndexFanout, NodeProcs: p.StoreProcs, Fill: 0.7}, s.keys)
	s.register()
	return s
}

// partOf maps a keyID to its partition (Fibonacci hashing, so partition
// load stays even under the generator's rank-correlated key IDs).
func (s *Store) partOf(id uint64) int {
	return int(((id + 1) * 0x9e3779b97f4a7c15) % uint64(s.p.StoreProcs))
}

// PartProc returns the home processor of a key's partition.
func (s *Store) PartProc(id uint64) int { return s.partOf(id) }

// NumKeys returns the population size.
func (s *Store) NumKeys() int { return len(s.keys) }

// Index exposes the range-scan index (tests).
func (s *Store) Index() *btree.Tree { return s.index }

// Value returns a key's current version, host-level (invariant checks
// at quiescence).
func (s *Store) Value(id uint64) uint64 {
	ps := s.rt.Objects.State(s.parts[s.partOf(id)]).(*partState)
	return ps.vals[id]
}

// ackReply is the one-word acknowledgement of a record touch.
type ackReply struct{}

func (r *ackReply) MarshalWords(w *msg.Writer)          { w.PutU32(0) }
func (r *ackReply) UnmarshalWords(rd *msg.Reader) error { rd.U32(); return rd.Err() }

// valueReply carries a point operation's result version.
//
//compmig:record
type valueReply struct{ value uint64 }

// keyArg carries the operation keyID.
//
//compmig:record
type keyArg struct{ key uint64 }

func (s *Store) register() {
	// The fine-grained record read: under RPC every one of an
	// operation's Touches accesses is a short call (§4.4's per-access
	// costing applied to a serving workload).
	s.mTouch = s.rt.RegisterMethod("kv.touch", true,
		func(t *core.Task, _ any, _ *msg.Reader, reply *msg.Writer) {
			t.Work(s.AccessCycles)
			reply.PutU32(0)
		})
	s.mGet = s.rt.RegisterMethod("kv.get", true,
		func(t *core.Task, self any, args *msg.Reader, reply *msg.Writer) {
			ps := self.(*partState)
			t.Work(s.AccessCycles)
			reply.PutU64(ps.vals[args.U64()])
		})
	// Writes get a real handler thread (they update the record, like the
	// B-tree's leaf put).
	s.mPut = s.rt.RegisterMethod("kv.put", false,
		func(t *core.Task, self any, args *msg.Reader, reply *msg.Writer) {
			ps := self.(*partState)
			key := args.U64()
			t.Work(s.AccessCycles)
			ps.vals[key]++
			s.logPut(t, key, ps.vals[key])
			reply.PutU64(ps.vals[key])
		})
	s.cOp = s.rt.RegisterCont("kv.op",
		func() core.Continuation { return &kvCont{st: s} })
}

// Get returns the key's current version, using the store's scheme or
// the attached policy's per-operation decision.
func (s *Store) Get(t *core.Task, id uint64) uint64 {
	mech := s.scheme.Mechanism
	if s.polGet != nil {
		op := t.Choose(s.polGet, s.parts[s.partOf(id)])
		defer op.Done(t)
		mech = op.Mech
	}
	return s.getWith(t, id, mech)
}

// Put bumps the key's version and returns the new version.
func (s *Store) Put(t *core.Task, id uint64) uint64 {
	mech := s.scheme.Mechanism
	if s.polPut != nil {
		op := t.Choose(s.polPut, s.parts[s.partOf(id)])
		defer op.Done(t)
		mech = op.Mech
	}
	return s.putWith(t, id, mech)
}

// Scan counts up to limit population keys >= keyID lo's value through
// the index.
func (s *Store) Scan(t *core.Task, lo uint64, limit int) int {
	loVal := s.keys[int(lo)%len(s.keys)]
	mech := s.scheme.Mechanism
	if s.polScan != nil {
		op := t.Choose(s.polScan, s.index.Root())
		defer op.Done(t)
		mech = op.Mech
	}
	return s.index.ScanVia(t, loVal, limit, mech)
}

func (s *Store) getWith(t *core.Task, id uint64, mech core.Mechanism) uint64 {
	g := s.parts[s.partOf(id)]
	switch mech {
	case core.RPC:
		for i := 0; i < s.p.Touches-1; i++ {
			s.touch(t, g)
		}
		var rep valueReply
		if err := t.Call(g, s.mGet, &keyArg{key: id}, &rep); err != nil {
			panic("kv: get failed: " + err.Error())
		}
		return rep.value
	case core.Migrate:
		var rep valueReply
		if err := t.Do(&kvCont{st: s, key: id, cur: g}, &rep); err != nil {
			panic("kv: get failed: " + err.Error())
		}
		return rep.value
	case core.SharedMem:
		th, proc := t.Thread(), t.Proc()
		ps := s.rt.Objects.State(g).(*partState)
		base := s.recordBase(ps, id)
		for i := 0; i < s.p.Touches; i++ {
			s.shm.Read(th, proc, base+mem.Addr(i*mem.LineBytes), 8)
		}
		t.Work(s.AccessCycles * uint64(s.p.Touches))
		return ps.vals[id]
	}
	panic(fmt.Sprintf("kv: unsupported mechanism %v", mech))
}

func (s *Store) putWith(t *core.Task, id uint64, mech core.Mechanism) uint64 {
	g := s.parts[s.partOf(id)]
	switch mech {
	case core.RPC:
		for i := 0; i < s.p.Touches-1; i++ {
			s.touch(t, g)
		}
		var rep valueReply
		if err := t.Call(g, s.mPut, &keyArg{key: id}, &rep); err != nil {
			panic("kv: put failed: " + err.Error())
		}
		return rep.value
	case core.Migrate:
		var rep valueReply
		if err := t.Do(&kvCont{st: s, key: id, put: true, cur: g}, &rep); err != nil {
			panic("kv: put failed: " + err.Error())
		}
		return rep.value
	case core.SharedMem:
		th, proc := t.Thread(), t.Proc()
		ps := s.rt.Objects.State(g).(*partState)
		base := s.recordBase(ps, id)
		// Atomic RMW on the record's first line (the version word), then
		// the update itself with no intervening yield, then the remaining
		// line writes — so concurrent writers never lose an increment.
		s.shm.RMW(th, proc, base)
		ps.vals[id]++
		v := ps.vals[id]
		s.logPut(t, id, v)
		for i := 1; i < s.p.Touches; i++ {
			s.shm.Write(th, proc, base+mem.Addr(i*mem.LineBytes), 8)
		}
		t.Work(s.AccessCycles * uint64(s.p.Touches))
		return v
	}
	panic(fmt.Sprintf("kv: unsupported mechanism %v", mech))
}

// recordBase returns the SM address of a key's record image.
func (s *Store) recordBase(ps *partState, id uint64) mem.Addr {
	return ps.base + mem.Addr(ps.slot[id]*s.p.Touches*mem.LineBytes)
}

// touch performs one short record access under RPC.
func (s *Store) touch(t *core.Task, g gid.GID) {
	var rep ackReply
	if err := t.Call(g, s.mTouch, nil, &rep); err != nil {
		panic("kv: touch failed: " + err.Error())
	}
}

// kvCont is the continuation for a migrating point operation: the frame
// ships to the partition's home, performs all Touches accesses locally,
// and returns only the result version — the paper's locality argument
// applied to a storage record. Wire stubs generated by cmd/contgen.
//
//compmig:record
type kvCont struct {
	st  *Store
	key uint64
	put bool
	cur gid.GID
}

func (c *kvCont) Run(t *core.Task) {
	s := c.st
	if !t.IsLocal(c.cur) {
		t.Migrate(c.cur, s.cOp, c)
		return
	}
	ps := t.State(c.cur).(*partState)
	t.Work(s.AccessCycles * uint64(s.p.Touches))
	if c.put {
		ps.vals[c.key]++
		s.logPut(t, c.key, ps.vals[c.key])
	}
	t.Return(&valueReply{value: ps.vals[c.key]})
}

// AttachPolicy registers the store's three call sites (get, put, scan)
// with a policy engine. The static profiles carry what a compiler would
// emit: Touches accesses per partition visit for point ops, short reads
// for gets, a full method for puts, and the index descent shape for
// scans.
func (s *Store) AttachPolicy(e *policy.Engine) {
	chain := float64(s.index.Height()) + 1
	s.polGet = e.NewSite("kv.get", advisor.SiteProfile{
		AccessesPerVisit: float64(s.p.Touches),
		ArgWords:         2, // keyID
		ReplyWords:       2, // version
		ContWords:        5, // keyID + op + cursor
		ShortMethod:      true,
		ChainLength:      1,
		WorkCycles:       float64(s.AccessCycles) * float64(s.p.Touches),
	})
	s.polPut = e.NewSite("kv.put", advisor.SiteProfile{
		AccessesPerVisit: float64(s.p.Touches),
		ArgWords:         2,
		ReplyWords:       2,
		ContWords:        5,
		ShortMethod:      false,
		ChainLength:      1,
		WorkCycles:       float64(s.AccessCycles) * float64(s.p.Touches),
	})
	s.polScan = e.NewSite("kv.scan", advisor.SiteProfile{
		AccessesPerVisit: 2,
		ArgWords:         3, // lo + remaining
		ReplyWords:       3, // count + next
		ContWords:        7, // cursor + count + remaining
		ShortMethod:      true,
		ChainLength:      chain,
	})
}

// Decisions sums the per-mechanism decision counts across the store's
// call sites (zero when no policy is attached).
func (s *Store) Decisions() [4]uint64 {
	var out [4]uint64
	for _, site := range []*policy.Site{s.polGet, s.polPut, s.polScan} {
		if site == nil {
			continue
		}
		d := site.Decisions()
		for i := range out {
			out[i] += d[i]
		}
	}
	return out
}
