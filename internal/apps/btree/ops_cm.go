//go:generate go run compmig/cmd/contgen -in ops_cm.go

package btree

import (
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/msg"
)

// opReply is the marshaled result of a B-tree operation: lookup hit,
// insert-was-new or delete-found.
type opReply struct{ ok bool }

func (r *opReply) MarshalWords(w *msg.Writer)          { w.PutBool(r.ok) }
func (r *opReply) UnmarshalWords(rd *msg.Reader) error { r.ok = rd.Bool(); return rd.Err() }

const (
	phaseDescend = iota
	phaseUp
)

// opCont is the continuation record for a migrating B-tree operation.
// Its fields are the live variables of the traversal: the key, the
// current node, the path of ancestors (needed to propagate splits), and
// — in the upward phase — the pending (oldBound, sep, newChild) triple.
// The record, path included, is marshaled on every hop, so deep trees
// pay for the state they carry, exactly as the paper's mechanism would.
// insert is always true (inserts are the only operation using opCont)
// but stays one word on the wire. Its wire stubs are generated by
// cmd/contgen (see ops_cm_gen.go), the role the Prelude compiler plays
// in §3.
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
}

func (c *opCont) at() gid.GID { return c.cur }

// visit descends through interior nodes remembering the path, puts at
// the leaf, and then installs splits on the way back up.
func (c *opCont) visit(t *core.Task, nd *node, sm bool) (done, ok bool) {
	tr := c.tr
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
		return false, false
	default:
		rep = tr.leafPut(t, nd, c.key, sm)
		c.inserted = rep.inserted
	}
	return c.apply(t, rep), c.inserted
}

// apply follows a put or insertUp reply: done, a lateral redirect, or a
// split to carry to the parent level — growing the tree when the split
// node was the root. It reports whether the insert is complete.
func (c *opCont) apply(t *core.Task, rep putReply) bool {
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

func (c *opCont) Run(t *core.Task) {
	if done, ok := c.tr.migrate(t, c, c.tr.cOp); done {
		t.Return(&opReply{ok: ok})
	}
}

func (c *opCont) do(t *core.Task) bool { return doOp(t, c) }

// lookupCont is the lean continuation for a migrating lookup. Lookups
// never propagate splits, so their live variables are only the key and
// the current node — the record stays at the paper's ~8-word scale
// instead of dragging the insert path around. Wire stubs generated by
// cmd/contgen.
//
//compmig:record
type lookupCont struct {
	tr  *Tree
	key uint64
	cur gid.GID
}

func (c *lookupCont) at() gid.GID { return c.cur }

func (c *lookupCont) visit(t *core.Task, nd *node, sm bool) (done, ok bool) {
	return c.apply(c.tr.step(t, nd, c.key, sm))
}

// apply follows a step: the next hop, or the verdict.
func (c *lookupCont) apply(rep stepReply) (done, found bool) {
	c.cur = rep.next
	return rep.kind != stepChild, rep.kind == stepFound
}

func (c *lookupCont) Run(t *core.Task) {
	if done, ok := c.tr.migrate(t, c, c.tr.cLookup); done {
		t.Return(&opReply{ok: ok})
	}
}

func (c *lookupCont) do(t *core.Task) bool { return doOp(t, c) }

// migrate is computation migration's way of reaching a node: the
// annotated call site is the node access, so when the node is local the
// visit simply proceeds, and otherwise the record ships to the node's
// home (under continuation cont) and this activation ends. done reports
// the operation complete here, with ok its verdict.
func (tr *Tree) migrate(t *core.Task, w walker, cont core.ContID) (done, ok bool) {
	for hop := 0; ; hop++ {
		checkHops(hop)
		cur := w.at()
		if !t.IsLocal(cur) {
			t.Migrate(cur, cont, w)
			return false, false
		}
		if done, ok := w.visit(t, t.State(cur).(*node), false); done {
			return true, ok
		}
	}
}

// doOp starts a lookup, insert or delete record here under computation
// migration and waits for the verdict its last hop returns.
func doOp(t *core.Task, w core.Continuation) bool {
	var rep opReply
	if err := t.Do(w, &rep); err != nil {
		panic("btree: migrated operation failed: " + err.Error())
	}
	return rep.ok
}
