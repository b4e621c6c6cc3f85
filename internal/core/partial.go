package core

import (
	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// Partial-activation migration — the other half of §6's "migration of
// multiple and partial activations". Where PushFrame sends a caller
// frame along with the computation, MigratePartial does the opposite
// split within one activation: only the live variables the remote part
// needs travel (next); the rest of the frame (residual) stays on this
// processor and resumes here when the migrated part returns. A frame
// with a large local working set can therefore ship a small probe
// instead of its whole state.
//
// The cost structure differs from PushFrame in exactly the way a
// programmer would tune between: the migrated record stays small, but
// the return is a real message back to this processor (no
// short-circuit), after which the residual's own Return pays the
// remaining path to the original caller.

// residualEntry is a frame half waiting for its migrated half.
type residualEntry struct {
	frame     Resumable
	origReply replyHandle
	proc      int
}

// MigratePartial ships next to object g's home while residual stays
// here. When the migrated part calls Return, its result is delivered to
// THIS processor and residual.Resume runs here (on a fresh activation
// thread), still owing the operation's final Return. When g is local,
// next runs inline and residual resumes directly — the annotation costs
// nothing for local access, like Migrate. The caller must return
// immediately after this call.
func (t *Task) MigratePartial(g gid.GID, contID ContID, next Continuation, residualID ContID, residual Resumable) {
	if t.isMethod {
		panic("core: instance method activations may not migrate (§3.1)")
	}
	if t.migrated {
		panic("core: MigratePartial on a dead frame")
	}
	rt := t.rt

	if t.IsLocal(g) {
		// Local: run the probe inline; its Return must come back to the
		// residual, so interpose a local reply that resumes it in place.
		sub := &Task{rt: rt, th: t.th, proc: t.proc, reply: t.reply, frames: t.frames}
		sub.frames = append(sub.frames, pendingFrame{id: residualID, frame: residual})
		next.Run(sub)
		return
	}

	// Remote: the migrated part replies to a residual slot on this proc.
	here := t.proc.ID()
	id, slot := rt.newReply(here)
	slot.residual = &residualEntry{frame: residual, origReply: t.reply, proc: here}
	sub := &Task{rt: rt, th: t.th, proc: t.proc, reply: replyHandle{proc: here, id: id}}
	sub.Migrate(g, contID, next)
	t.migrated = true
}

// resumeResidual is invoked when a reply lands in a residual slot: the
// waiting frame half continues on its own processor, carrying the
// operation's original linkage.
func (rt *Runtime) resumeResidual(ent *residualEntry, words []uint32) {
	proc := rt.Mach.Proc(ent.proc)
	// The residual resumes as a fresh activation: thread creation plus
	// dispatch, like any incoming continuation.
	rt.colAt(ent.proc).AddCycles(stats.CatThreadCreation, rt.Model.ThreadCreation)
	proc.ExecAsync(rt.Model.ThreadCreation+rt.Model.Scheduler, func() {
		proc.Spawn("residual", 0, func(th *sim.Thread) {
			task := &Task{rt: rt, th: th, proc: proc, reply: ent.origReply}
			ent.frame.Resume(task, msg.NewReader(words))
			if !task.migrated && !task.returned {
				panic("core: residual finished without Return or Migrate")
			}
		})
	})
}
