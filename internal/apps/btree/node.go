// Package btree implements the paper's second application: a distributed
// B-tree in the style of Wang [Wan91] — a B-link tree supporting
// concurrent lookup and insert (no delete, matching the paper's
// simplification), with nodes laid out randomly across processors.
//
// Every node covers a half-open key interval (low, high]; an interior
// node's keys are the inclusive upper bounds of its children, and the
// rightmost bound of the rightmost spine is MaxKey. Nodes carry right
// sibling links, so a descent that lands on a node whose range has
// shrunk (because of a concurrent split it did not see) recovers by
// moving laterally — the classic B-link trick Wang's algorithm relies
// on. This keeps writers from locking whole root-to-leaf paths.
package btree

import (
	"sort"

	"compmig/internal/gid"
	"compmig/internal/mem"
	"compmig/internal/sim"
)

// MaxKey is the sentinel upper bound of the rightmost spine.
const MaxKey = ^uint64(0)

// node is the private state of one B-tree node object.
type node struct {
	leaf     bool
	keys     []uint64  // leaf: stored keys; interior: child upper bounds
	children []gid.GID // interior only, len == len(keys)
	right    gid.GID   // right sibling (Nil at the end of a level)
	high     uint64    // inclusive upper bound of this node's range
	// kidsAreLeaves lets a descent step tell its caller whether the next
	// hop is a leaf; splits never change a node's level, so it is stable.
	kidsAreLeaves bool

	// g is the node's own GID, set at allocation, so code holding only
	// the state pointer (RPC handler bodies, the durability layer) can
	// name the node without a reverse lookup.
	g gid.GID

	lock sim.Mutex // writer lock

	// Shared-memory layout (SM scheme only).
	addrHeader mem.Addr
	addrKeys   mem.Addr
	addrKids   mem.Addr
}

// StateWords sizes a node's wire image under object migration (keys,
// children, header). Every operation pulls each node it touches to the
// requester, so concurrent requesters steal the upper levels from each
// other: whole-object migration behaves like data migration without
// replication, which is exactly what §2.2 predicts makes it a poor fit
// for shared structures.
func (nd *node) StateWords() uint64 {
	words := uint64(2*len(nd.keys)) + 8
	if !nd.leaf {
		words += uint64(2 * len(nd.children))
	}
	return words
}

// searchCycles models the user-code cost of a bounded binary search over
// n keys: a fixed part plus a per-probe part. Smaller nodes are cheaper
// to service — the effect the paper leans on in the fanout-10 experiment.
func searchCycles(n int) uint64 {
	probes := uint64(1)
	for m := 1; m < n; m *= 2 {
		probes++
	}
	return 20 + 10*probes
}

// probe runs binary search for the first index i with key <= keys[i];
// index == len(keys) when key exceeds all. When trace is non-nil it
// records the probed indices (for shared-memory line charging).
func probe(keys []uint64, key uint64, trace *probeTrace) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if trace != nil {
			trace.pos[trace.n] = int32(mid)
			trace.n++
		}
		if key <= keys[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// probeTrace holds the indices one binary search probed, in order. A
// search over any slice probes fewer than 64 times. The indices are
// int32 to keep the frames that hold a trace small: a simulated thread
// runs on a coroutine whose stack starts at a few kilobytes.
type probeTrace struct {
	n   int
	pos [64]int32
}

// route returns the next hop for key from an interior node: either a
// child, or the right sibling when the key lies beyond this node's range
// (a lateral B-link move).
func (nd *node) route(key uint64) (next gid.GID, lateral bool) {
	if key > nd.high {
		return nd.right, true
	}
	i := probe(nd.keys, key, nil)
	if i >= len(nd.children) {
		i = len(nd.children) - 1 // defensive: high bound guarantees i in range
	}
	return nd.children[i], false
}

// leafContains reports whether the leaf stores key. When key is beyond
// the leaf's range it returns the right sibling instead.
func (nd *node) leafContains(key uint64) (found bool, lateral gid.GID) {
	if key > nd.high {
		return false, nd.right
	}
	i := probe(nd.keys, key, nil)
	return i < len(nd.keys) && nd.keys[i] == key, gid.Nil
}

// leafInsert adds key to the leaf, reporting whether it was new. The
// caller must hold the node lock and have verified key <= high.
func (nd *node) leafInsert(key uint64) bool {
	i := probe(nd.keys, key, nil)
	if i < len(nd.keys) && nd.keys[i] == key {
		return false
	}
	nd.keys = append(nd.keys, 0)
	copy(nd.keys[i+1:], nd.keys[i:])
	nd.keys[i] = key
	return true
}

// insertChild installs a freshly split sibling into an interior node:
// the child whose entry covers newSep now ends at newSep, and newChild
// takes over the rest of that entry's range. The entry's bound is
// normally the split child's old bound; it differs when a neighbouring
// split at the same level was installed first, and keying the install
// by newSep keeps the keys sorted either way. The caller must hold the
// node lock and have verified newSep <= high. It reports false when
// newSep lies beyond every entry (the caller retries laterally).
func (nd *node) insertChild(newSep uint64, newChild gid.GID) bool {
	i := sort.Search(len(nd.keys), func(j int) bool { return nd.keys[j] >= newSep })
	if i >= len(nd.keys) {
		return false
	}
	bound := nd.keys[i]
	nd.keys[i] = newSep
	nd.keys = append(nd.keys, 0)
	nd.children = append(nd.children, gid.Nil)
	copy(nd.keys[i+2:], nd.keys[i+1:])
	copy(nd.children[i+2:], nd.children[i+1:])
	nd.keys[i+1] = bound
	nd.children[i+1] = newChild
	return true
}

// splitInfo describes the outcome of a node split: the surviving node now
// ends at Sep, and the new right sibling covers (Sep, OldBound].
type splitInfo struct {
	Sep      uint64
	OldBound uint64
}

// split moves the upper half of nd into a fresh node and returns that
// node's state plus the split description. The caller must hold the
// lock, allocate a GID for the new state, and link it via nd.right.
func (nd *node) split() (*node, splitInfo) {
	mid := len(nd.keys) / 2
	r := &node{
		leaf:          nd.leaf,
		keys:          append([]uint64{}, nd.keys[mid:]...),
		high:          nd.high,
		kidsAreLeaves: nd.kidsAreLeaves,
	}
	if !nd.leaf {
		r.children = append([]gid.GID{}, nd.children[mid:]...)
	}
	r.right = nd.right
	info := splitInfo{Sep: nd.keys[mid-1], OldBound: nd.high}
	nd.keys = nd.keys[:mid:mid]
	if !nd.leaf {
		nd.children = nd.children[:mid:mid]
	}
	nd.high = info.Sep
	return r, info
}
