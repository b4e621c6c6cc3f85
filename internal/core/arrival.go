package core

import (
	"fmt"

	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/network"
	"compmig/internal/sim"
)

// Arrival records carry one message from its delivery callback through
// the receive-path work segment to the thread or completion it starts,
// and departure records carry one from the booking of its send segment
// to the network. Each lane pools its own (see laneState) and reaches
// the runtime through it, and each record binds its ExecAsync and Spawn
// callbacks once at creation, so a warm message path allocates no
// closure, Task, Reader or Writer per message. A pooled record holds
// nothing of the operation it last carried, so a retired lane pins
// nothing of its run.

// pop takes the most recently pooled record, or nil when the pool is
// empty.
func pop[T any](pool *[]T) (x T) {
	n := len(*pool)
	if n == 0 {
		return x
	}
	x = (*pool)[n-1]
	clear((*pool)[n-1:])
	*pool = (*pool)[:n-1]
	return x
}

// rpcArrival is one method invocation: an RPC request on its way to its
// handler thread, or a local call running inline. It owns the handler's
// Task, its argument Reader and its reply Writer, and holds a remote
// request's message until the handler returns.
type rpcArrival struct {
	ls *laneState

	dst     *sim.Proc
	ent     *methodEntry
	g       gid.GID
	caller  int              // processor the reply goes to
	replyID uint32           // reply slot on the caller
	m       *network.Message // the request, whose payload args reads

	task  Task
	args  msg.Reader
	reply msg.Writer
	argw  msg.Writer // a local call's marshaled arguments

	spawn func()            // bound a.start, for ExecAsync
	body  func(*sim.Thread) // bound a.run, for Spawn
}

func (ls *laneState) getRPC() *rpcArrival {
	if a := pop(&ls.rpcs); a != nil {
		return a
	}
	a := &rpcArrival{ls: ls}
	a.spawn, a.body = a.start, a.run
	return a
}

// put clears the record's references and returns it to its lane's pool.
func (a *rpcArrival) put() {
	a.dst, a.ent = nil, nil
	a.task = Task{}
	a.args.Reset(nil)
	a.reply.Reset()
	a.argw.Reset()
	a.ls.rpcs = append(a.ls.rpcs, a)
}

// start runs when the receive path's work segment completes. Both
// short and long methods run on a simulated thread so handlers can
// block on locks or charge work; the cost difference (thread creation)
// was charged by chargeRecvTo. Spawning via the destination processor
// keeps the handler on that processor's lane.
func (a *rpcArrival) start() { a.dst.Spawn(a.ent.thread, 0, a.body) }

// run is the handler thread: it runs the method against the object's
// state, releases the request, whose payload the handler read its
// arguments from, and sends the reply back. The handler appends its
// result behind the reply id already in the reply buffer, which is
// exactly the reply's payload.
func (a *rpcArrival) run(th *sim.Thread) {
	rt := a.ls.rt
	a.task = Task{rt: rt, th: th, proc: a.dst, isMethod: true}
	a.reply.PutU32(a.replyID)
	a.ent.handler(&a.task, rt.Objects.State(a.g), &a.args, &a.reply)
	a.args.Reset(nil)
	rt.release(a.m)
	a.m = nil
	rt.sendResult(&a.task, a.ls, a.caller, a.replyID, a.reply.Words())
	a.put()
}

// migArrival is one arriving migration: the operation record still on
// the wire, and the activation Task it resumes as.
type migArrival struct {
	ls *laneState

	dst *sim.Proc
	m   *network.Message

	task Task
	r    msg.Reader

	spawn func()
	body  func(*sim.Thread)
}

func (ls *laneState) getMig() *migArrival {
	if a := pop(&ls.migs); a != nil {
		return a
	}
	a := &migArrival{ls: ls}
	a.spawn, a.body = a.start, a.run
	return a
}

func (a *migArrival) put() {
	a.task = Task{}
	a.dst, a.m = nil, nil
	a.r.Reset(nil)
	a.ls.migs = append(a.ls.migs, a)
}

func (a *migArrival) start() { a.dst.Spawn("activation", 0, a.body) }

// run is the activation thread: it reconstructs the operation record,
// releases the message, and resumes the record's walk.
func (a *migArrival) run(th *sim.Thread) {
	rt, r := a.ls.rt, &a.r
	r.Reset(a.m.Payload)
	r.U64() // target gid, checked before dispatch
	contID := ContID(r.U32())
	proc, id := unpackLinkage(r.U32())
	if int(contID) >= len(rt.conts) {
		panic(fmt.Sprintf("core: unknown continuation id %d", contID))
	}
	a.task = Task{rt: rt, th: th, proc: a.dst, reply: replyHandle{proc: proc, id: id}}
	w := a.task.Record(contID)
	if err := w.UnmarshalWords(r); err != nil {
		panic("core: corrupt continuation record: " + err.Error())
	}
	if err := r.Err(); err != nil {
		panic("core: continuation payload mismatch: " + err.Error())
	}
	if r.Remaining() != 0 {
		panic(fmt.Sprintf("core: %d trailing words in migration payload", r.Remaining()))
	}
	r.Reset(nil)
	rt.release(a.m)
	a.m = nil
	// The record is spent once it has shipped on or returned.
	a.task.hop(contID, w)
	a.ls.records[contID] = append(a.ls.records[contID], w)
	// Activation thread dies here — the paper's "destroy the original
	// thread" for frames at the base of their stack.
	a.put()
}

// replyArrival is one returning result between its delivery and the
// completion of its reply slot.
type replyArrival struct {
	ls *laneState

	m *network.Message // the reply: its id word, then the result words

	complete func() // bound a.run, for ExecAsync
}

func (ls *laneState) getReply() *replyArrival {
	if a := pop(&ls.rets); a != nil {
		return a
	}
	a := &replyArrival{ls: ls}
	a.complete = a.run
	return a
}

// run returns the record to the pool before completing the slot (the
// saved locals keep the reply), so the completion may itself reuse it.
// The slot's waiter releases the message.
func (a *replyArrival) run() {
	rt, m := a.ls.rt, a.m
	a.m = nil
	a.ls.rets = append(a.ls.rets, a)
	rt.completeReply(m.Dst, m.Payload[0], m.Payload[1:], m)
}

// departure is one message between the booking of its send segment on
// the sending processor and the end of that segment, when it leaves: a
// thread's client-stub send path (see Task.send), a forward, or an
// obj-move. The sending processor's lane pools it; depart takes it at
// booking and run returns it just before the send, so the send may
// itself reuse it.
type departure struct {
	ls *laneState

	m      *network.Message
	arrive func(*network.Message)
	tok    uint64 // the guard of the reply slot m is owed to, read at booking
	// to, unless Nil, is the object whose home m is addressed to as m.Src
	// knows it when m leaves: another thread's learn may move the hint
	// while the segment runs.
	to gid.GID

	send func() // bound d.run, for ExecAsync
}

// depart takes a departure record of lane ls for m, to be delivered to
// arrive and guarded by tok, for the caller to book its send segment
// with (ExecAsync(cycles, d.send)) or to run in place.
func (ls *laneState) depart(m *network.Message, arrive func(*network.Message), tok uint64, to gid.GID) *departure {
	d := pop(&ls.departs)
	if d == nil {
		d = &departure{ls: ls}
		d.send = d.run
	}
	d.m, d.arrive, d.tok, d.to = m, arrive, tok, to
	return d
}

// run addresses the message if it goes to an object's home, returns the
// record to its pool and sends the message.
func (d *departure) run() {
	rt, m, arrive, tok := d.ls.rt, d.m, d.arrive, d.tok
	if d.to != gid.Nil {
		m.Dst = rt.locate(m.Src, d.to)
	}
	d.m, d.arrive, d.to = nil, nil, gid.Nil
	d.ls.departs = append(d.ls.departs, d)
	//simvet:allow split-phase send: whoever booked the segment this ends charged its send cycles
	rt.Net.SendGuarded(m, arrive, rt.onGiveUp, tok)
}
