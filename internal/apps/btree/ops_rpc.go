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

// rpcBuf holds the argument and reply records of an RPC node access.
// Every operation record carries one as a local field, so Call decodes
// into and marshals from the pooled record instead of boxing fresh
// records per access.
type rpcBuf struct {
	peek  nkeysReply
	key   keyArg
	up    upArg
	scan  scanArg
	step  stepReply
	put   putReply
	count scanReply
}

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

	tr.cOp = core.RegisterWalker(tr.rt, "btree.op", func(c *opCont) { c.tr = tr })
	tr.cLookup = core.RegisterWalker(tr.rt, "btree.lookup", func(c *lookupCont) { c.tr = tr })
	tr.cScan = core.RegisterWalker(tr.rt, "btree.scan", func(c *scanCont) { c.tr = tr })
}

// RPC steps. The requester stays put and turns every node access into a
// record-read peek plus the step's call, remembering what it needs (the
// insert path, whether the next node is a leaf) in the same record the
// other mechanisms use — the messages §2.5 and Figure 1 count.

// call performs one RPC node access: the peek, decoded into buf, then
// method m at cur.
func (tr *Tree) call(t *core.Task, buf *rpcBuf, cur gid.GID, m core.MethodID, args msg.Marshaler, out msg.Unmarshaler) {
	if err := t.Call(cur, tr.mPeek, nil, &buf.peek); err != nil {
		panic("btree: peek failed: " + err.Error())
	}
	if err := t.Call(cur, m, args, out); err != nil {
		panic("btree: remote call failed: " + err.Error())
	}
}

// descend makes one RPC descent step at interior node cur toward key.
func (tr *Tree) descend(t *core.Task, buf *rpcBuf, cur gid.GID, key uint64) stepReply {
	buf.key.key = key
	tr.call(t, buf, cur, tr.mStep, &buf.key, &buf.step)
	if buf.step.kind != stepChild {
		panic("btree: interior step returned a leaf verdict")
	}
	return buf.step
}

// A lookup steps every node, leaf included, until the verdict arrives.
func (c *lookupCont) RPC(t *core.Task) bool {
	c.rpc.key.key = c.key
	c.tr.call(t, &c.rpc, c.cur, c.tr.mStep, &c.rpc.key, &c.rpc.step)
	return c.apply(c.rpc.step)
}

// An insert descends remembering the path, puts at the leaf, then
// carries any split up the path with insertUp calls.
func (c *opCont) RPC(t *core.Task) bool {
	tr, buf := c.tr, &c.rpc
	switch {
	case c.phase == phaseUp:
		buf.up = upArg{oldBound: c.oldBound, sep: c.sep, newChild: c.newChild}
		tr.call(t, buf, c.cur, tr.mInsertUp, &buf.up, &buf.put)
	case !c.leaf:
		s := tr.descend(t, buf, c.cur, c.key)
		if !s.lateral {
			c.path = append(c.path, c.cur)
		}
		c.cur, c.leaf = s.next, s.nextIsLeaf
		return false
	default:
		buf.key.key = c.key
		tr.call(t, buf, c.cur, tr.mPut, &buf.key, &buf.put)
		c.inserted = buf.put.inserted
	}
	return c.apply(t, buf.put)
}

// A scan descends to the first qualifying leaf, then counts leaf by
// leaf along the right links.
func (c *scanCont) RPC(t *core.Task) bool {
	buf := &c.rpc
	if !c.leaf {
		s := c.tr.descend(t, buf, c.cur, c.lo)
		c.cur, c.leaf = s.next, s.nextIsLeaf
		return false
	}
	buf.scan = scanArg{lo: c.lo, remaining: c.remaining}
	c.tr.call(t, buf, c.cur, c.tr.mScanStep, &buf.scan, &buf.count)
	c.take(buf.count)
	return c.finished()
}
