package core

import (
	"fmt"

	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/network"
)

// Multi-activation migration — the flexibility §6 calls essential ("we
// are designing annotations to allow a programmer to express migration
// of multiple and partial activations"). A procedure that wants its own
// frame to travel with its callee pushes a Resumable: the continuation
// of the *caller* from the point after the callee returns. Migrations
// then carry the whole pushed-frame stack; a Return pops the top frame
// and resumes it wherever the computation currently is, and only the
// bottom of the migrated stack returns to the original caller.

// Resumable is a caller activation frame that can migrate along with
// its callee. It is a Continuation (so it can be marshaled and
// registered) whose Resume method continues the caller with the
// callee's marshaled result.
type Resumable interface {
	Continuation
	// Resume continues the frame with the callee's result words.
	Resume(t *Task, result *msg.Reader)
}

// pendingFrame is one caller frame riding along with the computation.
type pendingFrame struct {
	id    ContID
	frame Resumable
}

// PushFrame declares that the caller's remaining work (frame) migrates
// together with whatever the task does next — the compiler artifact for
// a multi-frame migration annotation. The frame is resumed, possibly on
// a different processor, when the callee calls Return. The caller must
// tail-run its callee and return immediately (CPS discipline, as with
// Migrate).
func (t *Task) PushFrame(id ContID, frame Resumable) {
	if t.isMethod {
		panic("core: instance method activations may not migrate (§3.1)")
	}
	if int(id) >= len(t.rt.conts) {
		panic(fmt.Sprintf("core: unknown continuation id %d", id))
	}
	t.frames = append(t.frames, pendingFrame{id: id, frame: frame})
}

// packContHeader squeezes a continuation id and the riding-frame count
// into one wire word (16 bits each).
func packContHeader(id ContID, frames int) uint32 {
	if id >= 1<<16 {
		panic("core: continuation id does not fit header packing")
	}
	if frames < 0 || frames >= 1<<16 {
		panic("core: frame count does not fit header packing")
	}
	return uint32(id)<<16 | uint32(frames)
}

// unpackContHeader reverses packContHeader.
func unpackContHeader(w uint32) (ContID, int) {
	return ContID(w >> 16), int(w & 0xffff)
}

// marshalFrameBodies appends the pending frame stack to a migration
// payload, each frame as (contID, length-prefixed words); the count
// travels packed in the record header.
func (t *Task) marshalFrameBodies(w *msg.Writer) {
	for _, pf := range t.frames {
		w.PutU32(uint32(pf.id))
		w.PutU32s(msg.Encode(pf.frame))
	}
}

// unmarshalFrames reconstructs a frame stack of n entries.
func (rt *Runtime) unmarshalFrames(r *msg.Reader, n int) []pendingFrame {
	frames := make([]pendingFrame, 0, n)
	for i := 0; i < n; i++ {
		id := ContID(r.U32())
		words := r.U32s()
		if int(id) >= len(rt.conts) {
			panic(fmt.Sprintf("core: unknown frame continuation id %d", id))
		}
		c := rt.conts[id].factory()
		f, ok := c.(Resumable)
		if !ok {
			panic("core: migrated frame " + rt.conts[id].name + " is not Resumable")
		}
		if err := msg.Decode(words, f); err != nil {
			panic("core: corrupt frame record: " + err.Error())
		}
		frames = append(frames, pendingFrame{id: id, frame: f})
	}
	return frames
}

// popFrame resumes the topmost riding frame with the result words,
// charging the local linkage a frame switch costs.
func (t *Task) popFrame(resultWords []uint32) {
	pf := t.frames[len(t.frames)-1]
	t.frames = t.frames[:len(t.frames)-1]
	t.th.Exec(t.proc, t.rt.Model.RecvLinkage/2+1)
	pf.frame.Resume(t, msg.NewReader(resultWords))
}

// MigrateThread ships the ENTIRE thread to object g's home — the
// paper's §2.3 comparison point. Semantically it is a Migrate, but the
// message additionally carries the thread's full suspended state
// (stackWords of stack and register context), so the cost scales with
// thread size instead of activation size. Like Migrate, it is
// conditional on locality and the caller must return immediately.
func (t *Task) MigrateThread(g gid.GID, contID ContID, next Continuation, stackWords uint64) {
	if t.migrated {
		panic("core: MigrateThread on a dead frame")
	}
	if t.IsLocal(g) {
		next.Run(t)
		return
	}
	t.migrated = true
	rt := t.rt
	here := t.proc.ID()
	col := rt.colAt(here)
	col.MigrationsSent++

	w := msg.NewWriter(16)
	w.PutU64(uint64(g))
	w.PutU32(packContHeader(contID, len(t.frames)))
	w.PutU32(packLinkage(t.reply.proc, t.reply.id))
	t.marshalFrameBodies(w)
	next.MarshalWords(w)
	// The rest of the thread: stack segment plus register context.
	w.PutRaw(make([]uint32, stackWords))
	payload := w.Words()
	words := uint64(len(payload)) + network.HeaderWords

	t.th.Exec(t.proc, rt.chargeSendTo(col, words))
	rt.Net.SendGuarded(&network.Message{Src: here, Dst: rt.locate(here, g), Kind: "thread-migrate", Payload: payload},
		rt.onMigrate, rt.onGiveUp, rt.guard(t.reply.proc, t.reply.id))
}
