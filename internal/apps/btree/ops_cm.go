//go:generate go run compmig/cmd/contgen -in ops_cm.go

package btree

import (
	"compmig/internal/core"
	"compmig/internal/gid"
)

// opReply is the marshaled result of a B-tree operation: lookup hit or
// insert-was-new.
//
//compmig:record
type opReply struct{ ok bool }

const (
	phaseDescend = iota
	phaseUp
)

// opCont is an insert's record. Its fields are the live variables of
// the traversal: the key, the current node, the path of ancestors
// (needed to propagate splits), and — in the upward phase — the pending
// (oldBound, sep, newChild) triple. The record, path included, is
// marshaled on every hop, so deep trees pay for the state they carry,
// exactly as the paper's mechanism would. insert is always true (inserts
// are the only operation using opCont) but stays one word on the wire.
// leaf, host-side, tells the RPC step that cur is a leaf. Its
// wire stubs are generated by cmd/contgen (see ops_cm_gen.go), the role
// the Prelude compiler plays in §3.
//
//compmig:record
type opCont struct {
	tr       *Tree
	key      uint64
	insert   bool
	phase    uint32
	cur      gid.GID
	inserted bool
	oldBound uint64
	sep      uint64
	newChild gid.GID
	path     []gid.GID
	leaf     bool    `compmig:"local"`
	res      opReply `compmig:"local"`
	rpc      rpcBuf  `compmig:"local"`
}

func (c *opCont) At() gid.GID         { return c.cur }
func (c *opCont) Result() core.Result { return &c.res }

// Visit descends through interior nodes remembering the path, puts at
// the leaf, and then installs splits on the way back up.
func (c *opCont) Visit(t *core.Task, state any, mech core.Mechanism) bool {
	tr := c.tr
	nd, sm := tr.arrive(t, state, mech)
	var rep putReply
	switch {
	case c.phase == phaseUp:
		rep = tr.insertUp(t, nd, upArg{oldBound: c.oldBound, sep: c.sep, newChild: c.newChild}, sm)
	case !nd.leaf:
		s := tr.step(t, nd, c.key, sm)
		if !s.lateral {
			c.path = append(c.path, c.cur)
		}
		c.cur = s.next
		return false
	default:
		rep = tr.leafPut(t, nd, c.key, sm)
		c.inserted = rep.inserted
	}
	return c.apply(t, rep)
}

// apply follows a put or insertUp reply: done, a lateral redirect, or a
// split to carry to the parent level — growing the tree when the split
// node was the root. It reports whether the insert is complete.
func (c *opCont) apply(t *core.Task, rep putReply) bool {
	c.res.ok = c.inserted
	switch rep.kind {
	case putRedirect:
		c.cur = rep.next
		return false
	case putDone:
		return true
	}
	c.phase = phaseUp
	c.oldBound, c.sep, c.newChild = rep.oldBound, rep.sep, rep.newChild
	if len(c.path) > 0 {
		c.cur = c.path[len(c.path)-1]
		c.path = c.path[:len(c.path)-1]
		return false
	}
	// The split node was the root (or the path is exhausted): grow.
	if c.tr.growRoot(t, c.cur, rep) {
		return true
	}
	// Someone else grew the tree first: install the split one level up.
	c.cur = c.tr.above(c.cur)
	return false
}

// lookupCont is the lean record of a lookup. Lookups never propagate
// splits, so their live variables are only the key and the current node
// — the record stays at the paper's ~8-word scale instead of dragging
// the insert path around. Wire stubs generated by cmd/contgen.
//
//compmig:record
type lookupCont struct {
	tr  *Tree
	key uint64
	cur gid.GID
	res opReply `compmig:"local"`
	rpc rpcBuf  `compmig:"local"`
}

func (c *lookupCont) At() gid.GID         { return c.cur }
func (c *lookupCont) Result() core.Result { return &c.res }

func (c *lookupCont) Visit(t *core.Task, state any, mech core.Mechanism) bool {
	nd, sm := c.tr.arrive(t, state, mech)
	return c.apply(c.tr.step(t, nd, c.key, sm))
}

// apply follows a step: the next hop, or the verdict.
func (c *lookupCont) apply(rep stepReply) (done bool) {
	c.cur = rep.next
	c.res.ok = rep.kind == stepFound
	return rep.kind != stepChild
}
