package core

import (
	"fmt"

	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/network"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// replyHandle is the linkage information that travels with a migrating
// computation: where the operation's final result must be delivered. It
// is what lets a chain of migrations "in the end return directly to its
// caller" (§3.2).
type replyHandle struct {
	proc int
	id   uint32
}

// Task is an executing activation: a simulated thread positioned on a
// processor, plus the linkage for the current operation's result. A Task
// moves when the computation migrates.
type Task struct {
	rt   *Runtime
	th   *sim.Thread
	proc *sim.Proc

	reply    replyHandle
	isMethod bool // true inside an instance-method handler

	// child is the activation do runs its procedure as, kept for the
	// next do: the previous one is dead by the time do returns.
	child *Task
}

// NewTask binds a requester thread running on processor proc.
func (rt *Runtime) NewTask(th *sim.Thread, proc int) *Task {
	return &Task{rt: rt, th: th, proc: rt.Mach.Proc(proc)}
}

// Thread returns the simulated thread currently backing this task.
func (t *Task) Thread() *sim.Thread { return t.th }

// Proc returns the processor the task is currently executing on.
func (t *Task) Proc() int { return t.proc.ID() }

// Now returns the simulated time.
func (t *Task) Now() sim.Time { return t.th.Now() }

// Work charges n cycles of application computation on the current
// processor (Table 5 "User code").
func (t *Task) Work(n uint64) {
	t.rt.colAt(t.proc.ID()).AddCycles(stats.CatUserCode, n)
	t.th.Exec(t.proc, n)
}

// Think suspends the task without occupying the processor (the paper's
// "think time" between requests).
func (t *Task) Think(n uint64) { t.th.Sleep(n) }

// IsLocal reports whether object g currently lives on this processor —
// the check the runtime performs on every instance method call. It
// consults the object table, so it stays authoritative after the object
// migrates.
func (t *Task) IsLocal(g gid.GID) bool { return t.rt.Objects.Home(g) == t.proc.ID() }

// State returns the private state of a local object. It panics when
// invoked away from the object's home: instance state may only be touched
// by code running at the object ("instance methods always execute at the
// object on which they are invoked", §3.1).
func (t *Task) State(g gid.GID) any {
	if !t.IsLocal(g) {
		panic(fmt.Sprintf("core: touching state of object on proc %d from proc %d",
			t.rt.Objects.Home(g), t.proc.ID()))
	}
	return t.rt.Objects.State(g)
}

// do runs operation record w, of walker type id, under computation
// migration: on the activation the operation starts as, which hops from
// object to object, while this thread waits for the result, decoded
// into w.Result().
func (t *Task) do(id ContID, w Walker) error {
	if t.isMethod {
		panic("core: instance method activations may not start migratable procedures")
	}
	here := t.proc.ID()
	rid, slot := t.rt.newReply(here)
	if t.child == nil {
		t.child = new(Task)
	}
	child := t.child
	*child = Task{rt: t.rt, th: t.th, proc: t.proc, reply: replyHandle{proc: here, id: rid}}
	child.hop(id, w)
	// Either the procedure completed locally (slot already settled) or it
	// migrated away and this thread is now the waiting client stub.
	words, m, err := slot.wait(t.th)
	if err != nil {
		return err
	}
	err = t.rt.laneAt(here).r.Decode(words, w.Result())
	t.rt.release(m)
	return err
}

// ship sends record next, of walker type contID, to remote object g's
// home; the frame here is dead once it returns.
func (t *Task) ship(g gid.GID, contID ContID, next Walker) {
	rt := t.rt
	here := t.proc.ID()
	ls := rt.laneAt(here)
	ls.col.MigrationsSent++
	if rt.Eng.Tracing() {
		rt.Eng.Tracef("migrate", "frame -> p%d (obj %#x)", rt.Objects.Home(g), uint64(g))
	}

	// Build the wire record: target object + walker type + linkage +
	// live variables. The target GID is what the receiving runtime
	// translates and forward-checks (Table 5).
	w := ls.scratch()
	w.PutU64(uint64(g))
	w.PutU32(uint32(contID))
	w.PutU32(packLinkage(t.reply.proc, t.reply.id))
	next.MarshalWords(w)
	m := ls.message(here, "migrate", w.Words())
	words := uint64(len(m.Payload)) + network.HeaderWords
	if rt.Obs != nil {
		// The reply linkage identifies the operation's originating
		// processor regardless of how many hops the chain has taken.
		rt.Obs.MigrateHop(t.reply.proc, g, len(m.Payload))
	}

	// Client-stub send path runs on the current processor.
	t.th.Exec(t.proc, rt.chargeSendTo(ls.col, words))
	m.Dst = rt.locate(here, g)
	rt.Net.SendGuarded(m, rt.onMigrate, rt.onGiveUp, rt.guard(t.reply.proc, t.reply.id))
	// The frame at this processor is now dead. If it was itself a remote
	// activation, the thread is destroyed when hop returns; if it was the
	// original caller's frame, do is waiting on the reply slot.
}

// deliverMigrate is the server stub for an arriving migration: it
// charges the receive path on the destination processor, then creates
// the activation thread, which reconstructs the continuation record and
// resumes it (see migArrival).
func (rt *Runtime) deliverMigrate(m *network.Message) {
	var r msg.Reader
	r.Reset(m.Payload)
	if actual := rt.Objects.Home(gid.GID(r.U64())); actual != m.Dst {
		r.U32() // walker type
		proc, id := unpackLinkage(r.U32())
		rt.forward(m, actual, rt.onMigrate, proc, id)
		return
	}
	ls := rt.laneAt(m.Dst)
	words := uint64(len(m.Payload)) + network.HeaderWords
	overhead := rt.chargeRecvTo(ls.col, words, false)
	a := ls.getMig(rt)
	a.dst, a.m = rt.Mach.Proc(m.Dst), m
	a.dst.ExecAsync(overhead, a.spawn)
}

// finish delivers the operation's result to its caller. When the
// computation has migrated, this short-circuits: one message travels
// directly from the final processor to the original caller, skipping
// every intermediate hop.
func (t *Task) finish(result Result) {
	ls := t.rt.laneAt(t.proc.ID())
	w := ls.scratch()
	w.PutU32(t.reply.id)
	result.MarshalWords(w)
	// Completes locally when the procedure never left (or returned home).
	t.rt.sendResult(t, ls, t.reply.proc, t.reply.id, w.Words())
}

// deliverReply is the client-stub receive path for a returning result.
// The result words stay in place in the message, which the waiter
// releases once it has decoded them.
func (rt *Runtime) deliverReply(m *network.Message) {
	ls := rt.laneAt(m.Dst)
	words := uint64(len(m.Payload)) + network.HeaderWords
	overhead := rt.chargeRecvReplyTo(ls.col, words)
	a := ls.getReply(rt)
	a.m = m
	rt.Mach.Proc(m.Dst).ExecAsync(overhead, a.complete)
}
