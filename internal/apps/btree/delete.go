//go:generate go run compmig/cmd/contgen -in delete.go

package btree

import (
	"compmig/internal/core"
	"compmig/internal/gid"
)

// Delete support. The paper's tree "does not support the delete
// operation" (§4.2); we add it as an extension in the style practical
// B-link systems use: *lazy* deletion. The key is removed from its leaf
// under the leaf lock; nodes are allowed to underflow and are never
// merged, so no upward propagation, no lock coupling, and the B-link
// invariants (sorted keys, nested bounds, right links) are untouched.

// leafDelete removes key from the leaf, reporting whether it was
// present. The caller must hold the node lock and have verified
// key <= high.
func (nd *node) leafDelete(key uint64) bool {
	i := probe(nd.keys, key, nil)
	if i >= len(nd.keys) || nd.keys[i] != key {
		return false
	}
	copy(nd.keys[i:], nd.keys[i+1:])
	nd.keys = nd.keys[:len(nd.keys)-1]
	return true
}

// Delete removes key, reporting whether it was present, using the
// tree's static scheme (no policy routes deletes).
func (tr *Tree) Delete(t *core.Task, key uint64) bool {
	if key == MaxKey {
		return false
	}
	cur, _, isLeaf := tr.start(t, key)
	return tr.run(t, tr.insert.Mech, &deleteCont{tr: tr, key: key, cur: cur}, isLeaf)
}

// leafDelete removes key from leaf nd under its lock; the reply's
// inserted flag reports whether key was present. The reply redirects
// when key lies beyond nd's range.
func (tr *Tree) leafDelete(t *core.Task, nd *node, key uint64, sm bool) putReply {
	if !tr.lockFor(t, nd, key, sm) {
		return putReply{kind: putRedirect, next: nd.right}
	}
	t.Work(searchCycles(len(nd.keys)) + tr.InsertCycles)
	if sm {
		tr.writeKeyLine(t, nd, key)
	}
	ok := nd.leafDelete(key)
	if ok {
		t.Log(0, nd)
	}
	tr.unlock(t, nd, sm)
	return putReply{kind: putDone, inserted: ok}
}

// deleteCont is the migrating delete: live variables are the key and
// the current node, like a lookup (no path — deletes never propagate).
// Wire stubs generated by cmd/contgen (delete_gen.go).
//
//compmig:record
type deleteCont struct {
	tr  *Tree
	key uint64
	cur gid.GID
}

func (c *deleteCont) at() gid.GID { return c.cur }

func (c *deleteCont) visit(t *core.Task, nd *node, sm bool) (done, ok bool) {
	if !nd.leaf {
		c.cur = c.tr.step(t, nd, c.key, sm).next
		return false, false
	}
	return c.apply(c.tr.leafDelete(t, nd, c.key, sm))
}

// apply follows a leaf delete: a lateral redirect, or the verdict.
func (c *deleteCont) apply(rep putReply) (done, deleted bool) {
	c.cur = rep.next
	return rep.kind != putRedirect, rep.inserted
}

func (c *deleteCont) Run(t *core.Task) {
	if done, ok := c.tr.migrate(t, c, c.tr.cDelete); done {
		t.Return(&opReply{ok: ok})
	}
}

func (c *deleteCont) do(t *core.Task) bool { return doOp(t, c) }
