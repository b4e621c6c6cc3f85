//go:generate go run compmig/cmd/contgen -in ops_scan.go

package btree

import (
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/mem"
)

// Range scans: count up to limit stored keys >= lo, walking the leaf
// level through the B-link right pointers. Scans are the sequential
// workload the KV app's session queries need; they stress a different
// mechanism tradeoff than point operations because the access chain is
// leaf-to-leaf (uniform, long) instead of root-to-leaf (short, rooted at
// a hot node).

// scanArg carries the scan cursor to a leaf.
//
//compmig:record
type scanArg struct {
	lo        uint64
	remaining uint32
}

// scanReply is one leaf's contribution: keys counted here, and the next
// leaf to visit (Nil when the scan is complete or the level ends).
//
//compmig:record
type scanReply struct {
	count uint32
	next  gid.GID
}

// scanCount counts the leaf's keys >= lo, capped at remaining, and
// reports the index of the first counted key (for line charging).
func (nd *node) scanCount(lo uint64, remaining uint32) (count uint32, first int) {
	i := probe(nd.keys, lo, nil)
	avail := uint32(len(nd.keys) - i)
	if avail > remaining {
		avail = remaining
	}
	return avail, i
}

// Scan counts up to limit keys >= lo as an operation at the caller's
// call site. Object migration is rejected: no caller scans under it
// (kv, the only one, never runs object migration).
func (tr *Tree) Scan(t *core.Task, site *core.Site, lo uint64, limit int) int {
	op := t.Choose(site, tr.root)
	defer op.Done(t)
	if limit <= 0 {
		return 0
	}
	if op.Mech == core.ObjMigrate {
		panic("btree: scan supports Migrate, RPC, and SharedMem only")
	}
	cur, _, isLeaf := tr.start(t, lo)
	c := &scanCont{tr: tr, lo: lo, remaining: uint32(limit), cur: cur}
	tr.run(t, op.Mech, c, isLeaf)
	return int(c.count)
}

// scanLeaf counts leaf nd's keys >= lo, up to remaining, and names the
// next leaf when the scan must continue; under shared memory it reads
// the key lines the counted run covers. The reply moves right without
// counting when lo lies beyond nd's range.
func (tr *Tree) scanLeaf(t *core.Task, nd *node, lo uint64, remaining uint32, sm bool) scanReply {
	if lo > nd.high {
		return scanReply{next: nd.right}
	}
	t.Work(searchCycles(len(nd.keys)))
	n, first := nd.scanCount(lo, remaining)
	if sm && n > 0 {
		// The counted keys are a contiguous run: read each covered line.
		last := keyLineAddr(nd, first+int(n)-1)
		for a := keyLineAddr(nd, first); a <= last; a += mem.LineBytes {
			tr.shm.Read(t.Thread(), t.Proc(), a, 8)
		}
	}
	t.Work(uint64(n))
	rep := scanReply{count: n}
	if n < remaining {
		rep.next = nd.right
	}
	return rep
}

// scanCont is the continuation for a migrating scan: the frame hops from
// the root down to the first leaf and then leaf-to-leaf along the level,
// carrying only the cursor and the running count — the paper's argument
// for migration on pointer chains, applied to a range query. Wire stubs
// generated by cmd/contgen.
//
//compmig:record
type scanCont struct {
	tr        *Tree
	lo        uint64
	remaining uint32
	count     uint32
	cur       gid.GID
}

func (c *scanCont) at() gid.GID { return c.cur }

func (c *scanCont) visit(t *core.Task, nd *node, sm bool) (done, ok bool) {
	if !nd.leaf {
		c.cur = c.tr.step(t, nd, c.lo, sm).next
		return false, false
	}
	c.take(c.tr.scanLeaf(t, nd, c.lo, c.remaining, sm))
	return c.finished(), true
}

// take adds one leaf's contribution and moves to the next leaf.
func (c *scanCont) take(rep scanReply) {
	c.count += rep.count
	c.remaining -= rep.count
	c.cur = rep.next
}

// finished reports the count complete or the leaf level exhausted.
func (c *scanCont) finished() bool { return c.cur.IsNil() || c.remaining == 0 }

func (c *scanCont) Run(t *core.Task) {
	if done, _ := c.tr.migrate(t, c, c.tr.cScan); done {
		t.Return(&scanReply{count: c.count})
	}
}

func (c *scanCont) do(t *core.Task) bool {
	var rep scanReply
	if err := t.Do(c, &rep); err != nil {
		panic("btree: migrated scan failed: " + err.Error())
	}
	c.count = rep.count
	return true
}
