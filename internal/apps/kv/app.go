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
	"compmig/internal/advisor"
	"compmig/internal/apps/btree"
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/mem"
	"compmig/internal/msg"
	"compmig/internal/policy"
)

// Params configures a store instance.
type Params struct {
	StoreProcs  int // partitions, one per storage processor [0, StoreProcs)
	Touches     int // record accesses per point operation
	IndexFanout int // fanout of the range-scan index
}

// partState is one partition's host state: the version counter per key
// and, under shared memory, the record-line image.
type partState struct {
	vals map[uint64]uint64 // keyID -> version (0 = never written)
	slot map[uint64]int    // keyID -> record slot in the SM image
	base mem.Addr          // SM image base (Touches lines per record)
	g    gid.GID           // the partition object
}

// Store is a distributed KV store bound to a runtime and a scheme.
type Store struct {
	rt  *core.Runtime
	shm *mem.System // nil unless the scheme is SharedMem or a policy run
	p   Params

	parts []gid.GID // partition objects, parts[i] homed on processor i
	keys  []uint64  // keyID -> indexed key value (sorted unique)
	index *btree.Tree

	// The get, put and scan call sites.
	get, put, scan core.Site

	// AccessCycles is the user-code cost of one record access.
	AccessCycles uint64

	mTouch core.MethodID
	mGet   core.MethodID
	mPut   core.MethodID
	cOp    core.ContID
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
		rt: rt, shm: shm, p: p,
		get:          core.Site{Mech: scheme.Mechanism},
		put:          core.Site{Mech: scheme.Mechanism},
		scan:         core.Site{Mech: scheme.Mechanism},
		keys:         append([]uint64{}, keys...),
		AccessCycles: 40,
	}

	// Partitions, one per storage processor; keys assigned by hash so
	// skewed key popularity still spreads across partitions.
	s.parts = make([]gid.GID, p.StoreProcs)
	states := make([]*partState, p.StoreProcs)
	for i := range s.parts {
		states[i] = &partState{vals: make(map[uint64]uint64), slot: make(map[uint64]int)}
		s.parts[i] = rt.Objects.New(i, states[i])
		states[i].g = s.parts[i]
	}
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

// Value returns a key's current version, host-level (invariant checks
// at quiescence).
func (s *Store) Value(id uint64) uint64 {
	ps := s.rt.Objects.State(s.parts[s.partOf(id)]).(*partState)
	return ps.vals[id]
}

// ackReply is the one-word acknowledgement of a record touch. It has no
// fields, so a touch's reply record costs no allocation.
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
			t.Log(key, ps)
			reply.PutU64(ps.vals[key])
		})
	s.cOp = core.RegisterWalker(s.rt, "kv.op", func(c *kvCont) { c.st = s })
}

// Get returns the key's current version, using the store's scheme or
// the attached policy's per-operation decision.
func (s *Store) Get(t *core.Task, id uint64) uint64 { return s.access(t, &s.get, id, false) }

// Put bumps the key's version and returns the new version.
func (s *Store) Put(t *core.Task, id uint64) uint64 { return s.access(t, &s.put, id, true) }

// Scan counts up to limit population keys >= keyID lo's value through
// the index.
func (s *Store) Scan(t *core.Task, lo uint64, limit int) int {
	return s.index.Scan(t, &s.scan, s.keys[int(lo)%len(s.keys)], limit)
}

// access runs one point operation on key id at call site site: Touches
// record accesses at the key's partition, the last of them the read (or,
// with put, the version bump) whose version it returns.
func (s *Store) access(t *core.Task, site *core.Site, id uint64, put bool) uint64 {
	g := s.parts[s.partOf(id)]
	op := t.Choose(site, g)
	defer op.Done(t)
	c := t.Record(s.cOp).(*kvCont)
	*c = kvCont{st: s, key: id, put: put, cur: g}
	t.Walk(op.Mech, s.cOp, c)
	return c.res.value
}

// recordBase returns the SM address of a key's record image.
func (s *Store) recordBase(ps *partState, id uint64) mem.Addr {
	return ps.base + mem.Addr(ps.slot[id]*s.p.Touches*mem.LineBytes)
}

// kvCont is one point operation, for every mechanism. A migrating one
// ships its frame to the partition's home, performs all Touches accesses
// locally, and returns only the result version — the paper's locality
// argument applied to a storage record. Wire stubs generated by
// cmd/contgen.
//
//compmig:record
type kvCont struct {
	st  *Store
	key uint64
	put bool
	cur gid.GID
	res valueReply `compmig:"local"`
	arg keyArg     `compmig:"local"` // an RPC access's argument, marshaled in place
}

func (c *kvCont) At() gid.GID { return c.cur }

func (c *kvCont) Result() core.Result { return &c.res }

// Visit performs the operation's Touches accesses at the partition.
// Shared memory reads or writes the record's lines through the
// requester's cache. Its put is an atomic RMW on the record's first line
// (the version word), then the update itself with no intervening yield,
// then the remaining line writes — so concurrent writers never lose an
// increment.
func (c *kvCont) Visit(t *core.Task, state any, mech core.Mechanism) bool {
	s, ps := c.st, state.(*partState)
	work := s.AccessCycles * uint64(s.p.Touches)
	if mech != core.SharedMem {
		t.Work(work)
		if c.put {
			ps.vals[c.key]++
			t.Log(c.key, ps)
		}
		c.res.value = ps.vals[c.key]
		return true
	}
	th, proc := t.Thread(), t.Proc()
	base := s.recordBase(ps, c.key)
	if !c.put {
		for i := 0; i < s.p.Touches; i++ {
			s.shm.Read(th, proc, base+mem.Addr(i*mem.LineBytes), 8)
		}
		t.Work(work)
		c.res.value = ps.vals[c.key]
		return true
	}
	s.shm.RMW(th, proc, base)
	ps.vals[c.key]++
	c.res.value = ps.vals[c.key]
	t.Log(c.key, ps)
	for i := 1; i < s.p.Touches; i++ {
		s.shm.Write(th, proc, base+mem.Addr(i*mem.LineBytes), 8)
	}
	t.Work(work)
	return true
}

// RPC makes the accesses from the requester: Touches-1 short record
// touches, then the get or put call that returns the version.
func (c *kvCont) RPC(t *core.Task) bool {
	s := c.st
	for i := 0; i < s.p.Touches-1; i++ {
		var ack ackReply
		if err := t.Call(c.cur, s.mTouch, nil, &ack); err != nil {
			panic("kv: touch failed: " + err.Error())
		}
	}
	m := s.mGet
	if c.put {
		m = s.mPut
	}
	c.arg.key = c.key
	if err := t.Call(c.cur, m, &c.arg, &c.res); err != nil {
		panic("kv: access failed: " + err.Error())
	}
	return true
}

// AttachPolicy registers the store's three call sites (get, put, scan)
// with a policy engine. The static profiles carry what a compiler would
// emit: Touches accesses per partition visit for point ops, short reads
// for gets, a full method for puts, and the index descent shape for
// scans.
func (s *Store) AttachPolicy(e *policy.Engine) {
	chain := float64(s.index.Height()) + 1
	s.get.Chooser = e.NewSite("kv.get", advisor.SiteProfile{
		AccessesPerVisit: float64(s.p.Touches),
		ArgWords:         2, // keyID
		ReplyWords:       2, // version
		ContWords:        5, // keyID + op + cursor
		ShortMethod:      true,
		ChainLength:      1,
		WorkCycles:       float64(s.AccessCycles) * float64(s.p.Touches),
	})
	s.put.Chooser = e.NewSite("kv.put", advisor.SiteProfile{
		AccessesPerVisit: float64(s.p.Touches),
		ArgWords:         2,
		ReplyWords:       2,
		ContWords:        5,
		ShortMethod:      false,
		ChainLength:      1,
		WorkCycles:       float64(s.AccessCycles) * float64(s.p.Touches),
	})
	s.scan.Chooser = e.NewSite("kv.scan", advisor.SiteProfile{
		AccessesPerVisit: 2,
		ArgWords:         3, // lo + remaining
		ReplyWords:       3, // count + next
		ContWords:        7, // cursor + count + remaining
		ShortMethod:      true,
		ChainLength:      chain,
	})
}
