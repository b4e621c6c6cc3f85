package btree

import (
	"sort"

	"compmig/internal/advisor"
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/mem"
	"compmig/internal/policy"
	"compmig/internal/repl"
	"compmig/internal/sim"
)

// Params configures a tree instance.
type Params struct {
	Fanout    int     // maximum keys per node (paper: 100, and 10 in §4.2's variant)
	NodeProcs int     // nodes are placed uniformly on procs [0, NodeProcs) (paper: 48)
	Fill      float64 // bulk-load fill fraction (0.7 reproduces the paper's 3-child root)
}

// DefaultParams returns the paper's main configuration.
func DefaultParams() Params {
	return Params{Fanout: 100, NodeProcs: 48, Fill: 0.7}
}

// Tree is a distributed B-link tree bound to a runtime and a scheme.
type Tree struct {
	rt   *core.Runtime
	shm  *mem.System // SM scheme only
	repl *repl.Table // "w/repl." schemes only
	p    Params
	rng  *sim.PRNG // placement decisions

	// The lookup and insert call sites.
	lookup, insert core.Site

	root     gid.GID
	rootLock sim.Mutex
	height   int

	// Cost knobs (user-code cycles).
	LockCycles   uint64
	InsertCycles uint64
	AllocCycles  uint64

	// SMPrefetch makes shared-memory descents prefetch a node's key
	// array on entry, overlapping the probe misses (§2.5's prefetching
	// factor). Off by default: the paper's machine did not prefetch.
	SMPrefetch bool

	// PeekWork prices the short "remote record access" read that the
	// RPC version performs before operating on a node (the paper's
	// shared-memory-style programs turn each access into a call; §4.4's
	// "extra calls performed using RPC").
	PeekWork uint64

	mPeek     core.MethodID
	mStep     core.MethodID
	mPut      core.MethodID
	mInsertUp core.MethodID
	mDelete   core.MethodID
	mScanStep core.MethodID
	cOp       core.ContID
	cLookup   core.ContID
	cDelete   core.ContID
	cScan     core.ContID
}

// Build bulk-loads a tree with the given sorted-unique keys, placing
// nodes on random processors. When tbl is non-nil the root's content is
// replicated (the "w/repl." schemes).
func Build(rt *core.Runtime, shm *mem.System, tbl *repl.Table, scheme core.Scheme, p Params, keys []uint64) *Tree {
	if scheme.Mechanism == core.SharedMem && shm == nil {
		panic("btree: SharedMem scheme needs a mem.System")
	}
	tr := &Tree{
		rt: rt, shm: shm, repl: tbl, p: p,
		lookup:     core.Site{Mech: scheme.Mechanism},
		insert:     core.Site{Mech: scheme.Mechanism},
		rng:        rt.Eng.Rand().Fork(),
		LockCycles: 20, InsertCycles: 30, AllocCycles: 50, PeekWork: 20,
	}
	tr.bulkLoad(keys)
	tr.register()
	if tbl != nil {
		tbl.Replicate(tr.root, tr.snapshotRoot(), tr.snapshotWords())
	}
	return tr
}

// Root returns the current root GID; Height the number of levels.
func (tr *Tree) Root() gid.GID { return tr.root }
func (tr *Tree) Height() int   { return tr.height }

// RootChildren returns the root's child count (the paper discusses 3 vs 4).
func (tr *Tree) RootChildren() int {
	nd := tr.rt.Objects.State(tr.root).(*node)
	if nd.leaf {
		return 0
	}
	return len(nd.children)
}

// newNode places state on a random node processor, allocating its
// shared-memory image when the scheme needs one.
func (tr *Tree) newNode(nd *node) gid.GID {
	home := tr.rng.Intn(tr.p.NodeProcs)
	if tr.shm != nil {
		cap := uint64(tr.p.Fanout + 1)
		nd.addrHeader = tr.shm.Alloc(home, 16)
		nd.addrKeys = tr.shm.Alloc(home, 8*cap)
		nd.addrKids = tr.shm.Alloc(home, 8*cap)
	}
	g := tr.rt.Objects.New(home, nd)
	nd.g = g
	return g
}

// bulkLoad builds the initial tree bottom-up at the configured fill.
func (tr *Tree) bulkLoad(keys []uint64) {
	per := int(float64(tr.p.Fanout) * tr.p.Fill)
	if per < 2 {
		per = 2
	}
	if len(keys) == 0 {
		tr.root = tr.newNode(&node{leaf: true, high: MaxKey})
		tr.height = 1
		return
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		panic("btree: bulk-load keys must be sorted")
	}

	// Leaves.
	type built struct {
		g    gid.GID
		nd   *node
		high uint64
	}
	var level []built
	for i := 0; i < len(keys); i += per {
		end := i + per
		if end > len(keys) {
			end = len(keys)
		}
		nd := &node{leaf: true, keys: append([]uint64{}, keys[i:end]...)}
		nd.high = nd.keys[len(nd.keys)-1]
		level = append(level, built{nd: nd, high: nd.high})
	}
	level[len(level)-1].nd.high = MaxKey
	level[len(level)-1].high = MaxKey
	for i := range level {
		level[i].g = tr.newNode(level[i].nd)
	}
	for i := 0; i+1 < len(level); i++ {
		level[i].nd.right = level[i+1].g
	}
	tr.height = 1

	// Interior levels.
	childrenAreLeaves := true
	for len(level) > 1 {
		var up []built
		for i := 0; i < len(level); i += per {
			end := i + per
			if end > len(level) {
				end = len(level)
			}
			nd := &node{kidsAreLeaves: childrenAreLeaves}
			for _, ch := range level[i:end] {
				nd.keys = append(nd.keys, ch.high)
				nd.children = append(nd.children, ch.g)
			}
			nd.high = nd.keys[len(nd.keys)-1]
			up = append(up, built{g: tr.newNode(nd), nd: nd, high: nd.high})
		}
		for i := 0; i+1 < len(up); i++ {
			up[i].nd.right = up[i+1].g
		}
		level = up
		tr.height++
		childrenAreLeaves = false
	}
	tr.root = level[0].g
}

// snapshotRoot clones the root node's content for the replication table.
func (tr *Tree) snapshotRoot() *node {
	nd := tr.rt.Objects.State(tr.root).(*node)
	return &node{
		leaf:          nd.leaf,
		keys:          append([]uint64{}, nd.keys...),
		children:      append([]gid.GID{}, nd.children...),
		right:         nd.right,
		high:          nd.high,
		kidsAreLeaves: nd.kidsAreLeaves,
	}
}

// snapshotWords is the wire size of a root snapshot broadcast.
func (tr *Tree) snapshotWords() uint64 {
	nd := tr.rt.Objects.State(tr.root).(*node)
	return uint64(4*len(nd.keys)) + 6
}

// republishRoot refreshes replicas after the root's content changed.
func (tr *Tree) republishRoot(t *core.Task) {
	if tr.repl == nil {
		return
	}
	tr.repl.Publish(t, tr.root, tr.snapshotRoot(), tr.snapshotWords())
}

// start picks the first hop of a descent. Under replication the root's
// content is read locally — the whole point of the "w/repl." schemes —
// so the descent proper starts at the second level.
func (tr *Tree) start(t *core.Task, key uint64) (cur gid.GID, path []gid.GID, isLeaf bool) {
	if tr.repl != nil && tr.repl.IsReplicated(tr.root) {
		snap := tr.repl.Read(t, tr.root).(*node)
		if !snap.leaf {
			t.Work(searchCycles(len(snap.keys)))
			next, lateral := snap.route(key)
			if !lateral {
				return next, []gid.GID{tr.root}, snap.kidsAreLeaves
			}
		}
	}
	return tr.root, nil, tr.rt.Objects.State(tr.root).(*node).leaf
}

// growRoot replaces the root after a root split (rep, a putSplit
// reply). It returns true when this call installed the new root; false
// means another writer already grew the tree and the caller must retry
// its insertUp against the new root.
func (tr *Tree) growRoot(t *core.Task, oldRoot gid.GID, rep putReply) bool {
	tr.rootLock.Lock(t.Thread())
	defer tr.rootLock.Unlock(t.Thread())
	if tr.root != oldRoot {
		return false
	}
	t.Work(tr.AllocCycles + tr.InsertCycles)
	nr := &node{
		keys:          []uint64{rep.sep, rep.oldBound},
		children:      []gid.GID{oldRoot, rep.newChild},
		high:          rep.oldBound,
		kidsAreLeaves: tr.rt.Objects.State(oldRoot).(*node).leaf,
	}
	g := tr.newNode(nr)
	t.Log(0, nr)
	if tr.repl != nil && tr.repl.IsReplicated(oldRoot) {
		// Replicate the new root before exposing it so no reader ever
		// sees an unreplicated root. (Replicate is host-level: no yield.)
		clone := &node{keys: append([]uint64{}, nr.keys...),
			children: append([]gid.GID{}, nr.children...), high: nr.high}
		tr.repl.Replicate(g, clone, uint64(4*len(nr.keys))+6)
	}
	tr.root = g
	tr.height++
	if tr.repl != nil {
		tr.republishRoot(t) // broadcast the new-root announcement
	}
	return true
}

// above returns the leftmost node one level above node g's level: where
// a split of g whose growRoot lost is installed, following right links
// from there to g's parent. The leftmost node of a level stays leftmost,
// so it lies on the root's first-child spine; when the root grew exactly
// one level above g, it is the root. The walk is host-level, like the
// root pointer read it generalizes.
func (tr *Tree) above(g gid.GID) gid.GID {
	level := 0 // g's level, counted up from the leaves
	for nd := tr.rt.Objects.State(g).(*node); !nd.leaf; nd = tr.rt.Objects.State(nd.children[0]).(*node) {
		level++
	}
	cur := tr.root
	for l := tr.height - 1; l > level+1; l-- {
		cur = tr.rt.Objects.State(cur).(*node).children[0]
	}
	return cur
}

// Lookup reports whether key is present, using the tree's scheme or the
// attached policy's per-operation decision.
func (tr *Tree) Lookup(t *core.Task, key uint64) bool {
	op := t.Choose(&tr.lookup, tr.root)
	defer op.Done(t)
	cur, _, _ := tr.start(t, key)
	c := t.Record(tr.cLookup).(*lookupCont)
	*c = lookupCont{tr: tr, key: key, cur: cur}
	t.Walk(op.Mech, tr.cLookup, c)
	return c.res.ok
}

// Insert adds key, reporting whether it was new, using the tree's scheme
// or the attached policy's per-operation decision.
func (tr *Tree) Insert(t *core.Task, key uint64) bool {
	if key == MaxKey {
		panic("btree: MaxKey is reserved")
	}
	op := t.Choose(&tr.insert, tr.root)
	defer op.Done(t)
	cur, path, isLeaf := tr.start(t, key)
	c := t.Record(tr.cOp).(*opCont)
	*c = opCont{tr: tr, key: key, insert: true, cur: cur, path: append(c.path[:0], path...), leaf: isLeaf}
	t.Walk(op.Mech, tr.cOp, c)
	return c.res.ok
}

// AttachPolicy registers the tree's two operation call sites (lookup and
// insert) with a policy engine. The static profiles carry the record
// sizes and shape priors a compiler would emit: a descent visits height
// nodes, each probed with a short read plus the step/put access.
func (tr *Tree) AttachPolicy(e *policy.Engine) {
	chain := float64(tr.height)
	if chain < 1 {
		chain = 1
	}
	tr.lookup.Chooser = e.NewSite("btree.lookup", advisor.SiteProfile{
		AccessesPerVisit: 2, // peek + step under the per-access style
		ArgWords:         2, // key
		ReplyWords:       3, // next gid / found flag
		ContWords:        6, // key + cursor + bookkeeping
		ShortMethod:      true,
		ChainLength:      chain,
	})
	tr.insert.Chooser = e.NewSite("btree.insert", advisor.SiteProfile{
		AccessesPerVisit: 2,
		ArgWords:         2,
		ReplyWords:       3,
		ContWords:        8, // key + cursor + split propagation state
		ShortMethod:      true,
		ChainLength:      chain,
	})
}

// CheckInvariants walks the whole tree (host-level) verifying B-link
// structure: sorted keys, bounds nested correctly, right links monotone.
// Tests call it at quiescence.
func (tr *Tree) CheckInvariants() error {
	return tr.checkNode(tr.root, 0, MaxKey, tr.height)
}
