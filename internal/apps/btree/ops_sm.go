package btree

import (
	"slices"

	"compmig/internal/core"
	"compmig/internal/mem"
)

// Shared-memory operations: the requesting thread stays on its own
// processor and walks the tree through its hardware cache. Node metadata
// is read via the header line, binary-search probes touch individual key
// lines, and the chosen child pointer touches one child line — so a
// descent moves a handful of 16-byte lines instead of whole nodes, and
// repeated traversals hit only if those lines survive in the 64K cache
// (the paper measured <7% hits on the 10k-key tree).

// arrive is the start of every visit: nd is the state of the node the
// walk reached under mech, and sm says whether the visit prices its
// cache-line traffic. Shared memory reaches a node by reading its header
// line (prefetching the first probe lines when SMPrefetch is set).
func (tr *Tree) arrive(t *core.Task, state any, mech core.Mechanism) (nd *node, sm bool) {
	nd = state.(*node)
	if mech != core.SharedMem {
		return nd, false
	}
	if tr.SMPrefetch {
		tr.prefetchProbes(t.Proc(), nd)
	}
	tr.shm.Read(t.Thread(), t.Proc(), nd.addrHeader, 16)
	return nd, true
}

// chargeProbeReads prices the cache-line traffic of a binary search for
// key over nd's keys: one read of each distinct key line the probes
// touch, in probe order. The search runs before the first read yields,
// and its result index is returned.
func (tr *Tree) chargeProbeReads(t *core.Task, nd *node, key uint64) int {
	var trace probeTrace
	i := probe(nd.keys, key, &trace)
	var lines [len(trace.pos)]int
	n := 0
	for _, pos := range trace.pos[:trace.n] {
		if ln := pos * 8 / mem.LineBytes; !slices.Contains(lines[:n], ln) {
			lines[n] = ln
			n++
		}
	}
	th, proc := t.Thread(), t.Proc()
	for _, ln := range lines[:n] {
		tr.shm.Read(th, proc, nd.addrKeys+mem.Addr(ln*mem.LineBytes), 8)
	}
	return i
}

// writeKeyLine prices a locked update at key's slot in nd: the probe
// reads that find the slot and the write of its key line. It returns the
// slot index.
func (tr *Tree) writeKeyLine(t *core.Task, nd *node, key uint64) int {
	i := tr.chargeProbeReads(t, nd, key)
	tr.shm.Write(t.Thread(), t.Proc(), keyLineAddr(nd, i), 16)
	return i
}

// keyLineAddr returns the address of the key line holding index i.
func keyLineAddr(nd *node, i int) mem.Addr {
	return nd.addrKeys + mem.Addr(i*8/mem.LineBytes*mem.LineBytes)
}

// prefetchProbes starts fetching the lines binary search will touch
// first. The opening probe positions are data-independent (mid, then one
// of the quarter points, ...), so the first few levels of the probe tree
// can be fetched before the comparisons run — §2.5's prefetching,
// without flooding the home module with the whole array.
func (tr *Tree) prefetchProbes(proc int, nd *node) {
	n := len(nd.keys)
	if n == 0 {
		return
	}
	for _, pos := range []int{n / 2, n / 4, 3 * n / 4} {
		if pos < n {
			tr.shm.Prefetch(proc, keyLineAddr(nd, pos), 8)
		}
	}
}
