package btree

import (
	"compmig/internal/core"
	"compmig/internal/mem"
)

// Node steps. An operation's work at one node is written once, here, as
// a method on the node's state; the mechanisms differ only in how the
// operation reaches the node. An RPC handler runs the step at the node's
// home for a remote caller, a migrated continuation runs it after
// arriving there, and a shared-memory or object-migration walk runs it
// on the requester once the node's lines or the node itself are local.
// Each step returns the reply the RPC handler marshals.
//
// sm is set when the operation runs under shared memory: the step then
// also prices its cache-line traffic (probe reads, the lock's
// read-modify-write and header write, the lines an update or a split
// writes). It follows the operation's mechanism, never whether the tree
// has a shared-memory image — policy runs build one for every tree.

// step searches nd for key. At an interior node it names the next hop: a
// child, or the right sibling when key lies beyond nd's range. At a leaf
// it gives the verdict, or a lateral move when key lies beyond the leaf.
func (tr *Tree) step(t *core.Task, nd *node, key uint64, sm bool) stepReply {
	t.Work(searchCycles(len(nd.keys)))
	if nd.leaf {
		found, lat := nd.leafContains(key)
		if sm && lat.IsNil() {
			tr.chargeProbeReads(t, nd, key)
		}
		switch {
		case !lat.IsNil():
			return stepReply{kind: stepChild, next: lat, lateral: true, nextIsLeaf: true}
		case found:
			return stepReply{kind: stepFound}
		}
		return stepReply{kind: stepMissing}
	}
	next, lateral := nd.route(key)
	if sm && !lateral {
		tr.chargeProbeReads(t, nd, key)
		i := probe(nd.keys, key, nil)
		tr.shm.Read(t.Thread(), t.Proc(), nd.addrKids+mem.Addr(i*8), 8)
	}
	return stepReply{kind: stepChild, next: next, lateral: lateral,
		nextIsLeaf: !lateral && nd.kidsAreLeaves}
}

// leafPut inserts key into leaf nd under its lock, splitting nd when it
// overflows. The reply redirects when key lies beyond nd's range.
func (tr *Tree) leafPut(t *core.Task, nd *node, key uint64, sm bool) putReply {
	if !tr.lockFor(t, nd, key, sm) {
		return putReply{kind: putRedirect, next: nd.right}
	}
	t.Work(searchCycles(len(nd.keys)) + tr.InsertCycles)
	if sm {
		tr.writeKeyLine(t, nd, key)
	}
	inserted := nd.leafInsert(key)
	rep := putReply{kind: putDone}
	if len(nd.keys) <= tr.p.Fanout {
		if inserted {
			tr.logNode(t, nd)
		}
	} else {
		rep = tr.split(t, nd, sm)
	}
	tr.unlock(t, nd, sm)
	rep.inserted = inserted
	return rep
}

// insertUp installs a child's split — the child that ended at a.oldBound
// now ends at a.sep, and a.newChild covers the rest — into interior node
// nd, splitting nd in turn when it overflows. The reply redirects when
// the child's entry has moved right of nd.
func (tr *Tree) insertUp(t *core.Task, nd *node, a upArg, sm bool) putReply {
	if !tr.lockFor(t, nd, a.oldBound, sm) {
		return putReply{kind: putRedirect, next: nd.right}
	}
	t.Work(searchCycles(len(nd.keys)) + tr.InsertCycles)
	if sm {
		i := tr.writeKeyLine(t, nd, a.oldBound)
		tr.shm.Write(t.Thread(), t.Proc(), nd.addrKids+mem.Addr(i*8), 16)
	}
	if !nd.insertChild(a.oldBound, a.sep, a.newChild) {
		// The entry moved right between the routing and now.
		tr.unlock(t, nd, sm)
		return putReply{kind: putRedirect, next: nd.right}
	}
	isRoot := nd.g == tr.root
	rep := putReply{kind: putDone}
	if len(nd.keys) <= tr.p.Fanout {
		tr.logNode(t, nd)
	} else {
		rep = tr.split(t, nd, sm)
	}
	tr.unlock(t, nd, sm)
	if isRoot {
		tr.republishRoot(t)
	}
	return rep
}

// lockFor takes nd's writer lock for an update at key. It reports false,
// without the lock, when key lies beyond nd's range — before the lock
// was taken or after (a concurrent split moved the range).
func (tr *Tree) lockFor(t *core.Task, nd *node, key uint64, sm bool) bool {
	if key > nd.high {
		return false
	}
	if sm {
		// An atomic read-modify-write on the header line models
		// test-and-set; the sim mutex models blocking under contention.
		tr.shm.RMW(t.Thread(), t.Proc(), nd.addrHeader)
	}
	t.Work(tr.LockCycles)
	nd.lock.Lock(t.Thread())
	if key > nd.high {
		tr.unlock(t, nd, sm)
		return false
	}
	return true
}

// unlock releases nd's writer lock; under shared memory the release is a
// write of the header line.
func (tr *Tree) unlock(t *core.Task, nd *node, sm bool) {
	nd.lock.Unlock(t.Thread())
	if sm {
		tr.shm.Write(t.Thread(), t.Proc(), nd.addrHeader, 8)
	}
}

// split moves the upper half of locked, over-full nd into a fresh right
// sibling and returns the split the parent level must install. The
// sibling allocation is host-level; its cost is charged as work (the
// paper's splits are rare enough not to shape the results). Under shared
// memory the writes populating the sibling and both headers are priced.
func (tr *Tree) split(t *core.Task, nd *node, sm bool) putReply {
	t.Work(tr.AllocCycles + uint64(5*len(nd.keys)/2))
	r, info := nd.split()
	g := tr.newNode(r)
	nd.right = g
	if tr.wal != nil {
		// Survivor and sibling images land in one append, so a wipe never
		// observes half a split.
		tr.wal.Append(t.Thread(), t.Proc(), nodeRecord(nd), nodeRecord(r))
	}
	if sm {
		th, proc := t.Thread(), t.Proc()
		tr.shm.Write(th, proc, r.addrHeader, 16)
		tr.shm.Write(th, proc, r.addrKeys, uint64(8*len(r.keys)))
		if !r.leaf {
			tr.shm.Write(th, proc, r.addrKids, uint64(8*len(r.children)))
		}
		tr.shm.Write(th, proc, nd.addrHeader, 16)
	}
	return putReply{kind: putSplit, sep: info.Sep, oldBound: info.OldBound, newChild: g}
}
