//go:generate go run compmig/cmd/contgen -in ops_rpc.go

package btree

import (
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/msg"
)

// stepReply is the server's answer to one descent step. Wire stubs
// generated by cmd/contgen (ops_rpc_gen.go).
//
//compmig:record
type stepReply struct {
	kind       uint32 // stepChild: keep descending; stepFound/stepMissing: leaf verdict
	next       gid.GID
	lateral    bool // next is a same-level sibling, not a child
	nextIsLeaf bool // next is a leaf (so an inserter switches to put)
}

const (
	stepChild = iota
	stepFound
	stepMissing
)

// putReply is the server's answer to a leaf insert or an interior
// insertChild: done, a lateral redirect, or a completed split whose
// separator must now travel up.
//
//compmig:record
type putReply struct {
	kind     uint32 // putDone / putRedirect / putSplit
	inserted bool
	next     gid.GID // redirect target
	sep      uint64
	oldBound uint64
	newChild gid.GID
}

const (
	putDone = iota
	putRedirect
	putSplit
)

// nkeysReply answers a peek with the node's key count.
//
//compmig:record
type nkeysReply struct{ n uint32 }

// keyArg carries the operation key.
//
//compmig:record
type keyArg struct{ key uint64 }

// upArg carries a split to install in a parent. The install is keyed
// by sep (see insertChild); oldBound stays on the wire.
//
//compmig:record
type upArg struct {
	oldBound, sep uint64
	newChild      gid.GID
}

// register installs the tree's instance methods — the RPC server stubs.
// Each handler unmarshals its arguments, runs the node step (step.go) and
// marshals the step's reply; registration order fixes the MethodIDs.
func (tr *Tree) register() {
	// The short record-read that precedes every RPC operation on a node:
	// the shared-memory-style program reads the node record (lock word,
	// meta) and then operates on it, and under RPC each of those accesses
	// is a remote call (§2.5 counts RPC messages per access).
	tr.mPeek = tr.rt.RegisterMethod("btree.peek", true,
		func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
			t.Work(tr.PeekWork)
			reply.PutU32(uint32(len(self.(*node).keys)))
		})

	// The node-search call is a full method: Prelude "creates a new
	// thread for most remote calls" (§4.3); only the fine-grained record
	// accesses above take the short-method fast path (§4.4). The updates
	// lock, so they get real handler threads too.
	tr.mStep = tr.rt.RegisterMethod("btree.step", false,
		func(t *core.Task, self any, args *msg.Reader, reply *msg.Writer) {
			rep := tr.step(t, self.(*node), args.U64(), false)
			rep.MarshalWords(reply)
		})
	tr.mPut = tr.rt.RegisterMethod("btree.put", false,
		func(t *core.Task, self any, args *msg.Reader, reply *msg.Writer) {
			rep := tr.leafPut(t, self.(*node), args.U64(), false)
			rep.MarshalWords(reply)
		})
	tr.mInsertUp = tr.rt.RegisterMethod("btree.insertUp", false,
		func(t *core.Task, self any, args *msg.Reader, reply *msg.Writer) {
			var a upArg
			if err := a.UnmarshalWords(args); err != nil {
				panic("btree: bad insertUp args: " + err.Error())
			}
			rep := tr.insertUp(t, self.(*node), a, false)
			rep.MarshalWords(reply)
		})
	tr.mDelete = tr.rt.RegisterMethod("btree.delete", false,
		func(t *core.Task, self any, args *msg.Reader, reply *msg.Writer) {
			rep := tr.leafDelete(t, self.(*node), args.U64(), false)
			rep.MarshalWords(reply)
		})

	// New methods register after the originals so the numbering of the
	// existing MethodIDs (and with it every pinned table) never moves.
	tr.mScanStep = tr.rt.RegisterMethod("btree.scanStep", false,
		func(t *core.Task, self any, args *msg.Reader, reply *msg.Writer) {
			var a scanArg
			if err := a.UnmarshalWords(args); err != nil {
				panic("btree: bad scanStep args: " + err.Error())
			}
			rep := tr.scanLeaf(t, self.(*node), a.lo, a.remaining, false)
			rep.MarshalWords(reply)
		})

	tr.cOp = tr.rt.RegisterCont("btree.op",
		func() core.Continuation { return &opCont{tr: tr} })
	tr.cLookup = tr.rt.RegisterCont("btree.lookup",
		func() core.Continuation { return &lookupCont{tr: tr} })
	tr.cDelete = tr.rt.RegisterCont("btree.delete",
		func() core.Continuation { return &deleteCont{tr: tr} })
	tr.cScan = tr.rt.RegisterCont("btree.scan",
		func() core.Continuation { return &scanCont{tr: tr} })
}

// RPC requester loops. The requester stays put and turns every node
// access into a record-read peek plus the step's call, remembering what
// it needs (the insert path) itself — the messages §2.5 and Figure 1
// count. Each operation's loop keeps its live variables in the same
// record the other mechanisms use.

// call performs one RPC node access: the peek, then method m at cur.
func (tr *Tree) call(t *core.Task, cur gid.GID, m core.MethodID, args msg.Marshaler, out msg.Unmarshaler) {
	var n nkeysReply
	if err := t.Call(cur, tr.mPeek, nil, &n); err != nil {
		panic("btree: peek failed: " + err.Error())
	}
	if err := t.Call(cur, m, args, out); err != nil {
		panic("btree: remote call failed: " + err.Error())
	}
}

// descendRPC steps from cur down to the leaf covering key. When path is
// non-nil it collects the nodes the descent left downward, which split
// propagation climbs back through.
func (tr *Tree) descendRPC(t *core.Task, key uint64, cur gid.GID, isLeaf bool, path *[]gid.GID) gid.GID {
	for hop := 0; !isLeaf; hop++ {
		checkHops(hop)
		var rep stepReply
		tr.call(t, cur, tr.mStep, &keyArg{key: key}, &rep)
		if rep.kind != stepChild {
			panic("btree: interior step returned a leaf verdict")
		}
		if path != nil && !rep.lateral {
			*path = append(*path, cur)
		}
		cur, isLeaf = rep.next, rep.nextIsLeaf
	}
	return cur
}

// A lookup steps every node, leaf included, until the verdict arrives.
func (c *lookupCont) rpc(t *core.Task, _ bool) bool {
	for hop := 0; ; hop++ {
		checkHops(hop)
		var rep stepReply
		c.tr.call(t, c.cur, c.tr.mStep, &keyArg{key: c.key}, &rep)
		if done, ok := c.apply(rep); done {
			return ok
		}
	}
}

// An insert descends, puts at the leaf, then carries any split up the
// remembered path with insertUp calls.
func (c *opCont) rpc(t *core.Task, isLeaf bool) bool {
	tr := c.tr
	c.cur = tr.descendRPC(t, c.key, c.cur, isLeaf, &c.path)
	for hop := 0; ; hop++ {
		checkHops(hop)
		var rep putReply
		if c.phase == phaseUp {
			tr.call(t, c.cur, tr.mInsertUp, &upArg{oldBound: c.oldBound, sep: c.sep, newChild: c.newChild}, &rep)
		} else {
			tr.call(t, c.cur, tr.mPut, &keyArg{key: c.key}, &rep)
			c.inserted = rep.inserted
		}
		if done := c.apply(t, rep); done {
			return c.inserted
		}
	}
}

// A delete descends, then deletes at the leaf, following redirects.
func (c *deleteCont) rpc(t *core.Task, isLeaf bool) bool {
	c.cur = c.tr.descendRPC(t, c.key, c.cur, isLeaf, nil)
	for hop := 0; ; hop++ {
		checkHops(hop)
		var rep putReply
		c.tr.call(t, c.cur, c.tr.mDelete, &keyArg{key: c.key}, &rep)
		if done, ok := c.apply(rep); done {
			return ok
		}
	}
}

// A scan descends to the first qualifying leaf, then counts leaf by
// leaf along the right links.
func (c *scanCont) rpc(t *core.Task, isLeaf bool) bool {
	c.cur = c.tr.descendRPC(t, c.lo, c.cur, isLeaf, nil)
	for hop := 0; !c.finished(); hop++ {
		checkHops(hop)
		var rep scanReply
		c.tr.call(t, c.cur, c.tr.mScanStep, &scanArg{lo: c.lo, remaining: c.remaining}, &rep)
		c.take(rep)
	}
	return true
}
