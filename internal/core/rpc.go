package core

import (
	"fmt"

	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/network"
)

// Call invokes an instance method on object g, blocking until the reply
// arrives, and decodes the result into out (which may be nil). A local
// call dispatches directly with no messaging cost; a remote call takes
// the full client-stub / server-stub path of §2.1 — two messages per
// access, which is exactly what makes RPC lose to computation migration
// on repeated remote accesses. The request's send path occupies the
// caller's processor while the thread already waits for the reply.
func (t *Task) Call(g gid.GID, method MethodID, args msg.Marshaler, out msg.Unmarshaler) error {
	if int(method) >= len(t.rt.methods) {
		panic(fmt.Sprintf("core: unknown method id %d", method))
	}
	ent := &t.rt.methods[method]
	if t.IsLocal(g) {
		// Local call: run the handler inline on this thread. The words
		// round-trip through the codec for a single code path, but no
		// marshal cycles are charged — a local call passes arguments in
		// registers.
		return t.dispatchLocal(g, ent, args, out)
	}

	rt := t.rt
	here := t.proc.ID()
	ls := rt.laneAt(here)
	ls.col.RPCCalls++
	if ent.short {
		ls.col.ShortCalls++
	}
	id, slot := rt.newReply(here)
	w := ls.scratch()
	w.PutU32(uint32(method))
	w.PutU64(uint64(g))
	w.PutU32(packLinkage(here, id))
	if args != nil {
		args.MarshalWords(w)
	}
	t.send(ls, ls.message(here, "rpc", w.Words()), rt.onRPC, rt.guard(here, id), g)

	reply, rm, err := slot.wait(t.th)
	if err != nil {
		return err
	}
	if rt.Obs != nil {
		rt.Obs.Access(here, g)
	}
	// Piggybacked location information: the reply tells the caller where
	// the object really was.
	rt.learn(here, g, rt.Objects.Home(g))
	if out != nil {
		err = ls.r.Decode(reply, out)
	}
	rt.release(rm)
	return err
}

func (t *Task) dispatchLocal(g gid.GID, ent *methodEntry, args msg.Marshaler, out msg.Unmarshaler) error {
	rt := t.rt
	ls := rt.laneAt(t.proc.ID())
	a := ls.getRPC()
	defer a.put()
	if args != nil {
		args.MarshalWords(&a.argw)
	}
	a.args.Reset(a.argw.Words())
	a.task = Task{rt: rt, th: t.th, proc: t.proc, isMethod: true}
	ent.handler(&a.task, rt.Objects.State(g), &a.args, &a.reply)
	if err := a.args.Err(); err != nil {
		return fmt.Errorf("core: method %s argument decode: %w", ent.name, err)
	}
	if out == nil {
		return nil
	}
	return ls.r.Decode(a.reply.Words(), out)
}

// deliverRPC is the server stub: it charges the receive path on the
// object's home processor, runs the handler (in a fresh handler thread,
// unless the method is short and takes the active-message fast path), and
// sends the reply back (see rpcArrival.run).
func (rt *Runtime) deliverRPC(m *network.Message) {
	var r msg.Reader
	r.Reset(m.Payload)
	method := MethodID(r.U32())
	g := gid.GID(r.U64())
	callerProc, replyID := unpackLinkage(r.U32())
	if actual := rt.Objects.Home(g); actual != m.Dst {
		rt.forward(m, actual, rt.onRPC, callerProc, replyID)
		return
	}
	ent := &rt.methods[method]

	ls := rt.laneAt(m.Dst)
	words := uint64(len(m.Payload)) + network.HeaderWords
	overhead := rt.chargeRecvTo(ls.col, words, ent.short)

	a := ls.getRPC()
	a.dst, a.ent, a.g, a.caller, a.replyID, a.m = rt.Mach.Proc(m.Dst), ent, g, callerProc, replyID, m
	// The handler reads its arguments in place; the message is released
	// once it returns.
	a.args.Reset(m.Payload[len(m.Payload)-r.Remaining():])
	a.dst.ExecAsync(overhead, a.spawn)
}

// sendResult delivers reply payload (the reply id, then the result
// words) to reply slot id on processor proc: through the slot directly
// when proc is this task's processor — results pass in registers, no
// messages — and as a reply message otherwise. Either way the words are
// copied into a message from lane ls's pool first, since they sit in a
// buffer that is reused once the thread parks or retires.
func (rt *Runtime) sendResult(t *Task, ls *laneState, proc int, id uint32, payload []uint32) {
	here := t.proc.ID()
	m := ls.message(here, "reply", payload)
	m.Dst = proc
	if proc == here {
		rt.completeReply(here, id, m.Payload[1:], m)
		return
	}
	t.send(ls, m, rt.onReply, rt.guard(proc, id), gid.Nil)
}
