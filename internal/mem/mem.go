// Package mem implements the paper's data-migration substrate:
// Alewife-style cache-coherent shared memory. Each processor has a 64KB,
// 16-byte-line cache; each line has a home memory module holding a
// full-map directory entry; the protocol is MSI with invalidation on
// write (the same family as LimitLESS/DASH).
//
// The simulation is execution-driven in the Proteus sense: the substrate
// tracks tags, states, sharers, latency, processor/memory-module
// occupancy, and word traffic, while the actual datum lives in ordinary
// Go objects owned by the application. Coherence messages travel on the
// same simulated network as runtime messages but are priced as hardware:
// they pay wire latency and consume bandwidth, with no software stub
// overhead — exactly the asymmetry the paper studies ("we are actually
// comparing a software implementation of RPC and computation migration
// to a hardware implementation of data migration").
package mem

import (
	"fmt"
	"math/bits"
	"sync"        //simvet:allow host-side cache-backing pool shared across harness workers; never touches simulated state
	"sync/atomic" //simvet:allow host-side fast-path switch read by harness workers; never touches simulated state

	"compmig/internal/network"
	"compmig/internal/profile"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// Addr is a simulated shared-memory address. The home processor is packed
// into the upper bits.
type Addr uint64

const (
	// LineBytes is the cache line size (16 bytes, as in the paper).
	LineBytes = 16
	// LineWords is the line size in 32-bit words.
	LineWords = LineBytes / 4

	homeShift = 40
)

// HomeOf returns the processor whose memory module owns addr.
func HomeOf(a Addr) int { return int(uint64(a) >> homeShift) }

// lineOf returns the line-aligned address containing a.
func lineOf(a Addr) Addr { return a &^ (LineBytes - 1) }

// Params prices the hardware substrate.
type Params struct {
	CacheBytes int    // per-processor cache capacity (default 64KB)
	Ways       int    // set associativity (default 1: direct-mapped)
	HitCycles  uint64 // CPU cycles for a cache hit / lookup
	DirCycles  uint64 // memory-module occupancy per directory transaction
	MemCycles  uint64 // additional DRAM access time for data
	CtrlCycles uint64 // cache/directory controller handling per protocol message
	InstallCyc uint64 // CPU cycles to install an arriving line
	AddrWords  uint64 // words to name an address on the wire

	// LimitLESS directory emulation (0 = full-map hardware directory).
	// With DirPointers > 0, directory work on a line whose sharer set
	// exceeds the pointer count traps to software on the home CPU at
	// SoftDirBase + SoftDirPerSharer·|sharers| cycles.
	DirPointers      int
	SoftDirBase      uint64
	SoftDirPerSharer uint64
}

// DefaultParams returns the configuration used throughout the paper's
// experiments: 64K direct-mapped caches with 16-byte lines, as on the
// Alewife machine the paper's target resembles.
func DefaultParams() Params {
	return Params{
		CacheBytes: 64 << 10,
		Ways:       1,
		HitCycles:  2,
		DirCycles:  25,
		MemCycles:  25,
		CtrlCycles: 30,
		InstallCyc: 2,
		AddrWords:  2,

		SoftDirBase:      150,
		SoftDirPerSharer: 20,
	}
}

type lineState uint8

const (
	invalid lineState = iota
	shared
	modified
)

// cacheLine is kept to 16 bytes (tag + packed lru/gen/state) so a 64KB
// cache's metadata is one 64KB block: building and walking it is far
// cheaper than the naive layout. The 32-bit lru tick is plenty: it
// counts cache accesses within one experiment run, far below 2^32.
//
// gen makes entries from a previous life of a pooled backing array
// invisible without clearing it: a line is valid only when its gen
// matches the owning cache's generation.
type cacheLine struct {
	tag   Addr
	lru   uint32
	gen   uint16
	state lineState
}

type cache struct {
	lines []cacheLine // flat: set i occupies lines[i*ways : (i+1)*ways]
	back  *cacheBacking
	mask  uint64
	ways  int
	tick  uint32
	gen   uint16
}

// cacheBacking is a recyclable cacheLine array plus the generation its
// entries were last written under. The process-wide pool lets a harness
// sweep build thousands of machines without allocating (or zeroing) a
// fresh 64KB metadata block each time.
type cacheBacking struct {
	lines []cacheLine
	gen   uint16
}

// The backing free list is one locked stack rather than a sync.Pool:
// the pool's GC clearing threw the 64KB blocks away between sweep
// batches (alloc_bytes grew with worker count), and its per-P caches
// are useless under GOMAXPROCS=1. It was once eight shards picked
// round-robin by one cursor shared by gets and puts, which stranded
// blocks: when a machine's caches were released, the puts landed on
// other shards than the gets had drained, so one kv-open rep missed
// 120 of its 360 gets while full shards held about 16MB of idle
// blocks. With one stack every put is found by the next get, and the
// pool holds no more blocks than were ever live at once, up to
// backingCap. The lock is held only to pop or push.
const backingCap = 512

var backings struct {
	mu   sync.Mutex
	free []*cacheBacking
}

func getBacking(n int) *cacheBacking {
	backings.mu.Lock()
	for k := len(backings.free) - 1; k >= 0; k-- {
		b := backings.free[k]
		if len(b.lines) != n {
			continue
		}
		last := len(backings.free) - 1
		backings.free[k] = backings.free[last]
		backings.free[last] = nil
		backings.free = backings.free[:last]
		backings.mu.Unlock()
		b.gen++
		if b.gen == 0 {
			// Generation counter wrapped: entries written 2^16 lives
			// ago could collide with the new generation, so clear.
			clear(b.lines)
			b.gen = 1
		}
		return b
	}
	backings.mu.Unlock()
	// Fresh zeroed lines carry gen 0, invisible under generation 1.
	return &cacheBacking{lines: make([]cacheLine, n), gen: 1}
}

func putBacking(b *cacheBacking) {
	backings.mu.Lock()
	if len(backings.free) < backingCap {
		backings.free = append(backings.free, b)
	}
	backings.mu.Unlock()
}

func newCache(p Params) *cache {
	lines := p.CacheBytes / LineBytes
	sets := lines / p.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache must have a power-of-two set count, got %d", sets))
	}
	b := getBacking(sets * p.Ways)
	return &cache{lines: b.lines, back: b, mask: uint64(sets - 1), ways: p.Ways, gen: b.gen}
}

// release returns the cache's backing array to the pool. The cache must
// not be used afterwards.
func (c *cache) release() {
	if c.back == nil {
		return
	}
	putBacking(c.back)
	c.back = nil
	c.lines = nil
}

func (c *cache) set(line Addr) []cacheLine {
	i := int((uint64(line)/LineBytes)&c.mask) * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

// valid reports whether l holds a live entry of this cache (not invalid,
// not a leftover from a previous life of the backing array).
func (c *cache) valid(l *cacheLine) bool {
	return l.gen == c.gen && l.state != invalid
}

// lookup returns the cached line or nil.
func (c *cache) lookup(line Addr) *cacheLine {
	set := c.set(line)
	for i := range set {
		l := &set[i]
		if c.valid(l) && l.tag == line {
			c.tick++
			l.lru = c.tick
			return l
		}
	}
	return nil
}

// peek reports whether line is present in a state sufficient for the
// access (any valid state for reads, modified for writes) without
// touching the LRU bookkeeping, so a declined fast path leaves the cache
// exactly as an untried one.
func (c *cache) peek(line Addr, write bool) bool {
	set := c.set(line)
	for i := range set {
		l := &set[i]
		if c.valid(l) && l.tag == line {
			return !write || l.state == modified
		}
	}
	return false
}

// victimState reports the state of the entry install(line, ...) would
// evict, or invalid when installing would displace nothing (a free or
// same-tag way exists). Like peek it is mutation-free.
func (c *cache) victimState(line Addr) lineState {
	set := c.set(line)
	for i := range set {
		l := &set[i]
		if !c.valid(l) || l.tag == line {
			return invalid
		}
	}
	lru := &set[0]
	for i := range set {
		if set[i].lru < lru.lru {
			lru = &set[i]
		}
	}
	return lru.state
}

// install places line with the given state, returning the evicted victim
// (state modified or shared) if one was displaced.
func (c *cache) install(line Addr, st lineState) (victim Addr, victimState lineState) {
	set := c.set(line)
	c.tick++
	// Reuse an existing entry for the same tag (upgrade) or an invalid way.
	var lru *cacheLine
	for i := range set {
		l := &set[i]
		if !c.valid(l) {
			lru = l
			continue
		}
		if l.tag == line {
			l.state = st
			l.lru = c.tick
			return 0, invalid
		}
	}
	if lru == nil {
		lru = &set[0]
		for i := range set {
			if set[i].lru < lru.lru {
				lru = &set[i]
			}
		}
		victim, victimState = lru.tag, lru.state
	}
	lru.tag = line
	lru.state = st
	lru.lru = c.tick
	lru.gen = c.gen
	return victim, victimState
}

// drop removes line if present and returns its previous state.
func (c *cache) drop(line Addr) lineState {
	set := c.set(line)
	for i := range set {
		l := &set[i]
		if c.valid(l) && l.tag == line {
			st := l.state
			l.state = invalid
			return st
		}
	}
	return invalid
}

// dirEntry is the full-map directory state for one line, kept at its home
// memory module. Transactions on a line serialize through the busy flag;
// the ones waiting for it queue through txn.next, head first.
type dirEntry struct {
	sharers    sharerSet
	owner      int // proc holding the line modified, or -1
	busy       bool
	head, tail *txn
}

// sharerSet is a full-map presence vector: bit p of word p/64 is set when
// processor p may hold a shared copy.
type sharerSet []uint64

func (b sharerSet) has(p int) bool { return b[p>>6]&(1<<(p&63)) != 0 }
func (b sharerSet) add(p int)      { b[p>>6] |= 1 << (p & 63) }
func (b sharerSet) del(p int)      { b[p>>6] &^= 1 << (p & 63) }

func (b sharerSet) count() (n int) {
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

const dirChunk = 64 // directory entries per slab allocation

// fastPathOn controls whether newly created Systems take the inline fast
// paths. It exists so tests can force every access through the
// event-driven protocol and assert both modes produce identical
// simulated results.
var fastPathOn atomic.Bool

func init() { fastPathOn.Store(true) }

// SetFastPath enables or disables the inline fast paths for Systems
// created afterwards; existing Systems keep the setting they were built
// with. The fast paths never change simulated outcomes — only how much
// host work it takes to compute them — so this is purely a testing and
// debugging knob.
//
//simvet:allow the fast-path A/B identity tests (TestFastPathABIdentity, TestFastPathCollectorIdentity) force the event-driven reference path through it
func SetFastPath(on bool) { fastPathOn.Store(on) }

// System is the machine-wide shared-memory substrate.
type System struct {
	eng  *sim.Engine
	mach *sim.Machine
	net  *network.Network
	col  *stats.Collector
	p    Params
	fast bool // snapshot of fastPathOn at creation

	// Host-side profiling tallies (plain fields: a System is driven by
	// one engine), flushed to the profile package on Release.
	nFastHits  uint64 // line accesses satisfied by the inline all-hit path
	nFastLocal uint64 // misses completed inline at the home module
	nSlow      uint64 // line accesses through the event-driven protocol

	caches  []*cache
	modules []*sim.Proc // memory-module serial servers (not CPU procs)
	dirs    []map[Addr]*dirEntry
	heaps   []uint64 // per-proc bump allocators

	// Directory entries are carved from fixed chunks, so a txn's
	// *dirEntry stays valid; dirFree holds the unused and the reclaimed
	// ones. Each sharer set is words = (N+63)/64 words of its chunk.
	dirFree []*dirEntry
	words   int

	// inflight[p] tracks lines processor p is already fetching (MSHRs),
	// so demand reads join pending prefetches instead of duplicating
	// them. Allocated lazily per processor.
	inflight []map[Addr]*sim.Future

	pool *pools
}

// pools are the protocol's free lists: ctrls recycles the
// message-plus-adapter pair used for remote coherence sends (the
// protocol ships millions of them per run), txns the transaction
// objects (see txn) and invals the records of a write's invalidation
// fan-out (see inval). They outlive the run: they are the records the
// substrate keeps on its engine (sim.Keep), so when the machine retires,
// Retire scrubs them, and New rebinds them to the next System built on
// a revived lane.
type pools struct {
	ctrls  []*ctrlMsg
	txns   []*txn
	invals []*inval
}

// Retire drops each record's System. A pooled record holds nothing else
// of its run: its continuation, future, directory entry and transaction
// are cleared when it is pooled.
func (p *pools) Retire() int {
	for _, c := range p.ctrls {
		c.s = nil
	}
	for _, t := range p.txns {
		t.s = nil
	}
	return len(p.ctrls) + len(p.txns) + len(p.invals)
}

// ctrlMsg is one in-flight coherence message: the wire message and the
// adapter that charges controller handling at the receiver before
// invoking the protocol continuation. fn is the bound deliver method,
// built once when the adapter is created.
type ctrlMsg struct {
	s      *System
	m      network.Message
	arrive func()
	fn     func(*network.Message)
}

// deliver fires at the receiving controller, after wire transit plus the
// controller handling delay (folded into the delivery event by
// SendAfter, so a coherence message costs one heap event, not two). The
// adapter is returned to the pool first (locals keep its state), so the
// continuation may itself send and reuse it immediately.
func (c *ctrlMsg) deliver(*network.Message) {
	s, arrive := c.s, c.arrive
	c.arrive = nil
	s.pool.ctrls = append(s.pool.ctrls, c)
	arrive()
}

// New creates the substrate for the given machine and network.
func New(eng *sim.Engine, mach *sim.Machine, net *network.Network, col *stats.Collector, p Params) *System {
	s := &System{
		eng: eng, mach: mach, net: net, col: col, p: p,
		fast:     fastPathOn.Load(),
		caches:   make([]*cache, mach.N()),
		modules:  make([]*sim.Proc, mach.N()),
		dirs:     make([]map[Addr]*dirEntry, mach.N()),
		heaps:    make([]uint64, mach.N()),
		inflight: make([]map[Addr]*sim.Future, mach.N()),
		words:    (mach.N() + 63) / 64,
		pool:     sim.Keep[pools](eng),
	}
	for _, c := range s.pool.ctrls {
		c.s = s
	}
	for _, t := range s.pool.txns {
		t.s = s
	}
	mods := sim.NewMachine(eng, mach.N())
	for i := 0; i < mach.N(); i++ {
		s.caches[i] = newCache(p)
		s.modules[i] = mods.Proc(i)
		s.dirs[i] = make(map[Addr]*dirEntry)
		// Stagger heap bases so different homes' allocations spread over
		// the cache index space, as real heap addresses do; identical
		// bases would alias every node's data into the same few sets.
		s.heaps[i] = (uint64(i) * 2654435761) % (1 << 20) &^ (LineBytes - 1)
	}
	return s
}

// Alloc reserves size bytes of shared memory homed on processor home and
// returns the (line-aligned) base address.
func (s *System) Alloc(home int, size uint64) Addr {
	if home < 0 || home >= len(s.heaps) {
		panic("mem: alloc home out of range")
	}
	// Align to line boundaries so distinct objects never share lines
	// (avoids false sharing perturbing the experiments).
	base := (s.heaps[home] + LineBytes - 1) &^ (LineBytes - 1)
	s.heaps[home] = base + size
	if s.heaps[home] >= 1<<homeShift {
		panic("mem: heap exhausted")
	}
	return Addr(uint64(home)<<homeShift | base)
}

// Release returns the per-processor cache metadata to the process-wide
// pool. Call it when the experiment that built the system is done with
// it; the system must not be used afterwards. Releasing twice is a no-op.
func (s *System) Release() {
	if s == nil {
		return
	}
	if s.nFastHits|s.nFastLocal|s.nSlow != 0 {
		profile.MemFastHits.Add(s.nFastHits)
		profile.MemFastLocal.Add(s.nFastLocal)
		profile.MemSlow.Add(s.nSlow)
		s.nFastHits, s.nFastLocal, s.nSlow = 0, 0, 0
	}
	for _, c := range s.caches {
		c.release()
	}
}

func (s *System) dir(line Addr) *dirEntry {
	home := HomeOf(line)
	d := s.dirs[home][line]
	if d == nil {
		if len(s.dirFree) == 0 {
			ents, words := make([]dirEntry, dirChunk), make([]uint64, dirChunk*s.words)
			for i := range ents {
				ents[i].sharers = words[i*s.words : (i+1)*s.words : (i+1)*s.words]
				s.dirFree = append(s.dirFree, &ents[i])
			}
		}
		d = pop(&s.dirFree)
		d.owner = -1
		s.dirs[home][line] = d
	}
	return d
}

// pop takes the last object off a free list, or returns nil.
func pop[T any](free *[]*T) *T {
	k := len(*free)
	if k == 0 {
		return nil
	}
	t := (*free)[k-1]
	*free = (*free)[:k-1]
	return t
}

// send ships a protocol message, or schedules locally with no traffic if
// src == dst (a processor talking to its own memory module). Each remote
// delivery pays controller handling latency at the receiving end on top
// of wire transit — hardware, but not free.
func (s *System) send(src, dst int, dataWords uint64, arrive func()) {
	s.col.ProtocolMsgs++
	if src == dst {
		s.eng.Schedule(1+s.p.CtrlCycles/4, arrive)
		return
	}
	c := pop(&s.pool.ctrls)
	if c == nil {
		c = &ctrlMsg{s: s}
		c.fn = c.deliver
	}
	// The receiver never reads coherence payloads, so the address and
	// data words are charged via ExtraWords instead of a live slice.
	c.m = network.Message{Src: src, Dst: dst, Kind: "coherence", ExtraWords: s.p.AddrWords + dataWords}
	c.arrive = arrive
	s.net.SendAfter(&c.m, s.p.CtrlCycles, c.fn)
}

// Read performs a shared-memory load of size bytes at addr by thread th
// running on processor proc, blocking until every covered line is present.
func (s *System) Read(th *sim.Thread, proc int, addr Addr, size uint64) {
	s.access(th, proc, addr, size, false)
}

// Write performs a store: every covered line is fetched exclusive
// (invalidating other copies) before the write completes.
func (s *System) Write(th *sim.Thread, proc int, addr Addr, size uint64) {
	s.access(th, proc, addr, size, true)
}

// RMW performs an atomic read-modify-write on the line containing addr
// (e.g. a balancer toggle or a lock word): it is a Write of one word.
func (s *System) RMW(th *sim.Thread, proc int, addr Addr) {
	s.access(th, proc, addr, 4, true)
}

func (s *System) access(th *sim.Thread, proc int, addr Addr, size uint64, write bool) {
	if size == 0 {
		return
	}
	first := lineOf(addr)
	last := lineOf(addr + Addr(size) - 1)
	if s.fast && s.fastAllHit(proc, first, last, write) {
		return
	}
	for line := first; ; line += LineBytes {
		if !s.fast || !s.fastLocalMiss(proc, line, write) {
			s.accessLine(th, proc, line, write)
		}
		if line == last {
			break
		}
	}
}

// fastAllHit satisfies an access entirely from the local cache in one
// clock jump: every covered line must already be present in a sufficient
// state, and nothing else may be scheduled inside the access's charge
// window (TryAdvance). Under those conditions it replicates the slow
// path exactly — the same per-line lookup order (hence LRU tick
// assignment), hit counts, processor occupancy, and completion time —
// with no Future, no directory lock, and no event-heap traffic.
func (s *System) fastAllHit(proc int, first, last Addr, write bool) bool {
	if s.p.HitCycles == 0 {
		return false
	}
	c := s.caches[proc]
	n := uint64(0)
	for line := first; ; line += LineBytes {
		if !c.peek(line, write) {
			return false
		}
		n++
		if line == last {
			break
		}
	}
	cpu := s.mach.Proc(proc)
	now := s.eng.Now()
	start := cpu.FreeAt()
	if start < now {
		start = now
	}
	if !s.eng.TryAdvance(start + n*s.p.HitCycles) {
		return false
	}
	cpu.ReserveAt(now, n*s.p.HitCycles)
	for line := first; ; line += LineBytes {
		c.lookup(line)
		if line == last {
			break
		}
	}
	s.col.CacheHits += n
	s.nFastHits += n
	return true
}

// fastLocalMiss completes a miss whose home module is on the accessing
// processor inline. When the directory entry is idle with no conflicting
// remote copies and nothing else is scheduled before the transaction
// would complete, the whole exchange — tag probe, self-addressed request,
// directory + DRAM occupancy, local reply, line install — collapses into
// synchronous bookkeeping plus one clock jump with identical statistics
// and occupancy accounting. It reports false (leaving no trace of the
// attempt) whenever any precondition fails; the event-driven path then
// handles the access.
func (s *System) fastLocalMiss(proc int, line Addr, write bool) bool {
	if HomeOf(line) != proc || s.p.DirPointers != 0 || s.p.HitCycles == 0 || s.eng.Tracing() {
		return false
	}
	c := s.caches[proc]
	if c.peek(line, write) {
		return false // hit: the regular path charges it
	}
	if _, pending := s.inflight[proc][line]; pending && !write {
		return false // must join the in-flight prefetch
	}
	d := s.dir(line)
	if d.busy || d.head != nil || d.owner != -1 {
		return false
	}
	if write {
		if n := d.sharers.count(); n > 1 || n == 1 && !d.sharers.has(proc) {
			return false // remote sharers need invalidations
		}
	}
	if c.victimState(line) == modified {
		return false // dirty eviction: the slow path issues the writeback
	}
	// Replay the slow path's timeline: hit-time tag probe on the CPU (t0),
	// self-addressed request (t1), directory + DRAM work queued on the
	// home module (t2), local data reply (t3), install charge on the CPU.
	cpu := s.mach.Proc(proc)
	now := s.eng.Now()
	t0 := cpu.FreeAt()
	if t0 < now {
		t0 = now
	}
	t0 += s.p.HitCycles
	t1 := t0 + 1 + s.p.CtrlCycles/4
	t2 := s.modules[proc].FreeAt()
	if t2 < t1 {
		t2 = t1
	}
	t2 += s.p.DirCycles + s.p.MemCycles
	t3 := t2 + 1 + s.p.CtrlCycles/4
	if !s.eng.TryAdvance(t3 + s.p.InstallCyc) {
		return false
	}
	cpu.ReserveAt(now, s.p.HitCycles)
	s.modules[proc].ReserveAt(t1, s.p.DirCycles+s.p.MemCycles)
	if s.p.InstallCyc > 0 {
		cpu.ReserveAt(t3, s.p.InstallCyc)
	}
	s.col.CacheMisses++
	s.col.ProtocolMsgs += 2 // request and reply, both module-local: no traffic
	st := shared
	if write {
		st = modified
		clear(d.sharers)
		d.owner = proc
	} else {
		d.sharers.add(proc)
	}
	c.install(line, st)
	s.nFastLocal++
	return true
}

func (s *System) accessLine(th *sim.Thread, proc int, line Addr, write bool) {
	s.nSlow++
	if profile.Enabled() {
		defer profile.MemSlow.TimeNs()()
	}
	cpu := s.mach.Proc(proc)
	th.Exec(cpu, s.p.HitCycles) // tag lookup always costs a hit time
	c := s.caches[proc]
	if l := c.lookup(line); l != nil {
		if !write || l.state == modified {
			s.col.CacheHits++
			return
		}
	}
	s.col.CacheMisses++
	if s.eng.Tracing() {
		s.eng.Tracef("miss", "p%d line %#x write=%v", proc, uint64(line), write)
	}
	if !write && s.joinInflight(th, proc, line) {
		// The line was already on its way (prefetch); it is installed by
		// the fill helper once the wait returns.
		if c.lookup(line) != nil {
			th.Exec(cpu, s.p.InstallCyc)
			return
		}
		// Evicted between fill and resume: fall through to a fresh fetch.
	}
	// One demand miss is in flight per thread at a time, so the thread's
	// scratch future serves the rendezvous without allocating.
	fut := th.ScratchFuture()
	s.fetch(proc, line, write, fut)
	// The directory transaction stays open until the line is installed
	// here (see fetch).
	release := fut.Wait(th).(func())
	st := shared
	if write {
		st = modified
	}
	victim, vstate := c.install(line, st)
	release()
	if vstate == modified {
		// Dirty eviction: fire-and-forget writeback to the victim's home.
		s.writeback(proc, victim)
	}
	th.Exec(cpu, s.p.InstallCyc)
}

// dirWork runs a directory transaction's bookkeeping: in software on the
// home CPU when the line's sharer set has overflowed the hardware
// pointers (LimitLESS), on the memory module otherwise.
func (s *System) dirWork(home int, d *dirEntry, cycles uint64, done func()) {
	if s.softwareHandled(home, d, done) {
		return
	}
	s.modules[home].ExecAsync(cycles, done)
}

// txn is one in-flight directory transaction: the requester's fetch of a
// line in shared (read) or exclusive (write) state, or (wb) a dirty
// evicted line's writeback. The protocol steps are methods bound once per
// pooled object, so the slow path — the request, directory
// serialization, recall, invalidation fan-out, grant, reply and
// writeback — allocates nothing per transaction.
type txn struct {
	s        *System
	proc     int // requester
	home     int
	owner    int // dirty owner being recalled, when >= 0
	line     Addr
	write    bool
	wb       bool // a writeback from proc, not a fetch
	withData bool // the grant must carry line data (requester had no copy)
	acks     int  // invalidation acks outstanding
	fut      *sim.Future
	d        *dirEntry
	next     *txn // the next transaction queued on d

	enterFn, runFn, recallFn, recallAckFn, ackFn, dirDoneFn, replyFn func()
	releaseFn, writtenBackFn                                         func()
}

func (s *System) newTxn(proc int, line Addr, write bool, fut *sim.Future) *txn {
	t := pop(&s.pool.txns)
	if t == nil {
		t = &txn{s: s}
		t.enterFn, t.runFn, t.recallFn, t.recallAckFn = t.enter, t.run, t.recall, t.recallAck
		t.ackFn, t.dirDoneFn, t.replyFn = t.ack, t.dirDone, t.reply
		t.releaseFn, t.writtenBackFn = t.releaseLine, t.writtenBack
	}
	t.proc, t.home, t.line, t.write, t.fut = proc, HomeOf(line), line, write, fut
	t.owner, t.wb, t.withData, t.acks, t.d = -1, false, false, 0, nil
	return t
}

// inval is one invalidation of a write's fan-out, bound once like txn:
// the transaction and the sharer q it invalidates.
type inval struct {
	t  *txn
	q  int
	fn func()
}

// fetch obtains line for proc — shared for reads, exclusive (invalidating
// other copies) for writes — and completes fut with the transaction's
// release callback. The requester invokes it after installing the line;
// completing earlier would let a queued request invalidate a copy that
// has not arrived yet (two-owners race).
func (s *System) fetch(proc int, line Addr, write bool, fut *sim.Future) {
	t := s.newTxn(proc, line, write, fut)
	s.send(proc, t.home, 0, t.enterFn)
}

// enter runs at the home: serialize on the line's directory entry.
func (t *txn) enter() {
	d := t.s.dir(t.line)
	t.d = d
	if !d.busy {
		t.run()
	} else if d.tail == nil {
		d.head, d.tail = t, t
	} else {
		d.tail.next, d.tail = t, t
	}
}

// run starts the directory transaction proper.
func (t *txn) run() {
	s, d := t.s, t.d
	d.busy = true
	if t.wb {
		if d.owner == t.proc {
			d.owner = -1
		}
		d.sharers.del(t.proc)
		s.modules[t.home].ExecAsync(s.p.DirCycles+s.p.MemCycles, t.writtenBackFn)
		return
	}
	if d.owner >= 0 && d.owner != t.proc {
		// Recall the dirty copy: home -> owner; the owner replies with
		// data and the directory work proceeds on its return.
		t.owner = d.owner
		s.send(t.home, t.owner, 0, t.recallFn)
		return
	}
	if !t.write {
		d.owner = -1
		s.dirWork(t.home, d, s.p.DirCycles+s.p.MemCycles, t.dirDoneFn)
		return
	}
	t.withData = !d.sharers.has(t.proc)
	t.acks = d.sharers.count()
	if !t.withData {
		t.acks-- // the writer's own copy
	}
	if t.acks == 0 {
		s.dirWork(t.home, d, s.p.DirCycles+s.p.MemCycles, t.dirDoneFn)
		return
	}
	// Invalidate every other sharer in ascending processor order; collect
	// acks.
	for i, w := range d.sharers {
		for ; w != 0; w &= w - 1 {
			q := i<<6 | bits.TrailingZeros64(w)
			if q == t.proc {
				continue
			}
			v := pop(&s.pool.invals)
			if v == nil {
				v = &inval{}
				v.fn = v.run
			}
			v.t, v.q = t, q
			s.send(t.home, q, 0, v.fn)
		}
	}
}

// run fires at the invalidated sharer: drop its copy and ack to the home.
// The record is pooled first, as ctrlMsg.deliver does.
func (v *inval) run() {
	t, q := v.t, v.q
	s := t.s
	v.t = nil
	s.pool.invals = append(s.pool.invals, v)
	s.caches[q].drop(t.line)
	s.col.Invalidations++
	s.send(q, t.home, 0, t.ackFn)
}

// recall runs at the dirty owner: downgrade (read) or invalidate (write)
// its copy, then return the data to the home.
func (t *txn) recall() {
	s := t.s
	if t.write {
		s.caches[t.owner].drop(t.line)
		s.col.Invalidations++
	} else if s.caches[t.owner].drop(t.line) == modified {
		s.caches[t.owner].install(t.line, shared)
	}
	s.send(t.owner, t.home, LineWords, t.recallAckFn)
}

// recallAck runs at the home with the owner's data in hand.
func (t *txn) recallAck() {
	s, d := t.s, t.d
	if t.write {
		t.withData = true
		s.dirWork(t.home, d, s.p.DirCycles, t.dirDoneFn)
		return
	}
	d.owner = -1
	d.sharers.add(t.owner)
	s.dirWork(t.home, d, s.p.DirCycles+s.p.MemCycles, t.dirDoneFn)
}

// ack counts one invalidation acknowledgement.
func (t *txn) ack() {
	t.acks--
	if t.acks == 0 {
		t.s.dirWork(t.home, t.d, t.s.p.DirCycles, t.dirDoneFn)
	}
}

// dirDone runs once the directory + memory work has been charged: update
// the entry and send the grant/data reply to the requester.
func (t *txn) dirDone() {
	s, d := t.s, t.d
	if t.write {
		clear(d.sharers)
		d.owner = t.proc
		words := uint64(0)
		if t.withData {
			words = LineWords
		}
		s.send(t.home, t.proc, words, t.replyFn)
		return
	}
	d.sharers.add(t.proc)
	s.send(t.home, t.proc, LineWords, t.replyFn)
}

// reply runs at the requester when the data arrives.
func (t *txn) reply() {
	t.fut.Complete(t.releaseFn)
}

// releaseLine closes the transaction: it reopens the directory entry
// (running the next queued transaction) and recycles the object. A
// fetch's future resolves to it, and the requester invokes it after
// installing the line.
func (t *txn) releaseLine() {
	s, d := t.s, t.d
	d.busy = false
	if next := d.head; next != nil {
		d.head, next.next = next.next, nil
		if d.head == nil {
			d.tail = nil
		}
		s.eng.Schedule(0, next.runFn)
	}
	t.fut, t.d = nil, nil
	s.pool.txns = append(s.pool.txns, t)
}

// writeback retires a dirty evicted line to its home (fire-and-forget).
// By the time it is processed the directory may have moved on (a recall
// raced ahead), so it degrades to a replacement hint in that case.
func (s *System) writeback(proc int, line Addr) {
	t := s.newTxn(proc, line, false, nil)
	t.wb = true
	s.send(proc, t.home, LineWords, t.enterFn)
}

// writtenBack runs once the home module has absorbed a writeback. If that
// left the line uncached everywhere with nothing queued, the entry goes
// back to the free list (a later access starts an identical empty one),
// so directories stay bounded by the *live* working set. Silent shared
// evictions leave stale sharer bits, so only a writeback sees emptiness.
func (t *txn) writtenBack() {
	s, d, line := t.s, t.d, t.line
	dead := d.owner == -1 && d.head == nil && d.sharers.count() == 0
	t.releaseLine()
	if dead {
		delete(s.dirs[HomeOf(line)], line)
		s.dirFree = append(s.dirFree, d)
	}
}
