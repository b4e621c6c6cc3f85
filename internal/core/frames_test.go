package core

import (
	"testing"

	"compmig/internal/cost"
	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/sim"
)

// twoPhase is a caller procedure whose frame migrates along with its
// callee: it sends a sumCont over some cells and, when that returns,
// multiplies the result using a second object — wherever the
// computation happens to be by then.
type twoPhase struct {
	r      *rig
	factor uint64
}

func (p *twoPhase) MarshalWords(w *msg.Writer)         { w.PutU64(p.factor) }
func (p *twoPhase) UnmarshalWords(r *msg.Reader) error { p.factor = r.U64(); return r.Err() }

// Run is unused: twoPhase frames are only ever resumed.
func (p *twoPhase) Run(t *Task) { panic("twoPhase frames are resumed, not run") }

func (p *twoPhase) Resume(t *Task, result *msg.Reader) {
	var rep cellReply
	if err := rep.UnmarshalWords(result); err != nil {
		panic(err)
	}
	t.Return(&cellReply{val: rep.val * p.factor})
}

func TestMultiFrameMigration(t *testing.T) {
	r := newRig(t, 5, cost.Software())
	frameID := r.rt.RegisterCont("twophase", func() Continuation { return &twoPhase{r: r} })

	// Entry: push the caller frame, then tail-run the summing callee.
	entry := r.rt.RegisterCont("twophase.entry", func() Continuation { return &sumCont{r: r} })
	_ = entry

	var got uint64
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 0)
		id, slot := r.rt.newReply(0)
		child := &Task{rt: r.rt, th: th, proc: task.proc,
			reply: replyHandle{proc: 0, id: id}}
		child.PushFrame(frameID, &twoPhase{r: r, factor: 10})
		if len(child.frames) != 1 {
			t.Error("frame not pushed")
		}
		(&sumCont{r: r, cells: r.cells[1:4]}).Run(child)
		words, _, err := slot.wait(th)
		if err != nil {
			t.Error(err)
		}
		var rep cellReply
		if err := msg.Decode(words, &rep); err != nil {
			t.Error(err)
		}
		got = rep.val
	})
	r.run(t)
	// Sum of cells 1..3 is 2+3+4 = 9; the riding frame multiplies by 10.
	if got != 90 {
		t.Fatalf("got %d, want 90", got)
	}
	// The frame stack rode inside the migrate messages: 3 migrations,
	// one final reply — the caller-frame resume itself cost no message.
	if r.col.MigrationsSent != 3 || r.col.TotalMessages() != 4 {
		t.Errorf("%d migrations, %d messages, want 3 migrations + 1 reply", r.col.MigrationsSent, r.col.TotalMessages())
	}
}

func TestFrameStackGrowsMessage(t *testing.T) {
	// A migration carrying a frame must be strictly bigger on the wire
	// than the same migration without one.
	bare := newRig(t, 2, cost.Software())
	bare.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := bare.rt.NewTask(th, 0)
		var rep cellReply
		if err := task.Do(&sumCont{r: bare, cells: bare.cells[1:2]}, &rep); err != nil {
			t.Error(err)
		}
	})
	bare.run(t)

	framed := newRig(t, 2, cost.Software())
	frameID := framed.rt.RegisterCont("grow.frame", func() Continuation { return &twoPhase{r: framed} })
	framed.eng.Spawn("req", 0, func(th *sim.Thread) {
		id, slot := framed.rt.newReply(0)
		child := &Task{rt: framed.rt, th: th, proc: framed.m.Proc(0),
			reply: replyHandle{proc: 0, id: id}}
		child.PushFrame(frameID, &twoPhase{r: framed, factor: 2})
		(&sumCont{r: framed, cells: framed.cells[1:2]}).Run(child)
		slot.wait(th)
	})
	framed.run(t)

	if framed.col.WordsSent <= bare.col.WordsSent {
		t.Errorf("framed migration words (%d) not above bare (%d)",
			framed.col.WordsSent, bare.col.WordsSent)
	}
}

func TestThreadMigrationCostsScaleWithStack(t *testing.T) {
	run := func(stackWords uint64) (uint64, sim.Time) {
		r := newRig(t, 3, cost.Software())
		contID := r.cSum
		var dur sim.Time
		r.eng.Spawn("req", 0, func(th *sim.Thread) {
			task := r.rt.NewTask(th, 0)
			id, slot := r.rt.newReply(0)
			child := &Task{rt: r.rt, th: th, proc: task.proc,
				reply: replyHandle{proc: 0, id: id}}
			start := th.Now()
			child.MigrateThread(r.cells[1], contID,
				&sumCont{r: r, idx: 0, cells: r.cells[1:2]}, stackWords)
			slot.wait(th)
			dur = th.Now() - start
		})
		r.run(t)
		return r.col.WordsSent, dur
	}
	smallWords, smallTime := run(8)
	bigWords, bigTime := run(512)
	if bigWords <= smallWords+400 {
		t.Errorf("thread migration words: big=%d small=%d, want ~504 more", bigWords, smallWords)
	}
	if bigTime <= smallTime {
		t.Errorf("thread migration time: big=%d small=%d", bigTime, smallTime)
	}
}

func TestThreadMigrationLocalRunsInline(t *testing.T) {
	r := newRig(t, 2, cost.Software())
	contID := r.cSum
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 1)
		id, slot := r.rt.newReply(1)
		child := &Task{rt: r.rt, th: th, proc: task.proc,
			reply: replyHandle{proc: 1, id: id}}
		child.MigrateThread(r.cells[1], contID,
			&sumCont{r: r, cells: []gid.GID{r.cells[1]}}, 256)
		slot.wait(th)
	})
	r.run(t)
	if r.col.TotalMessages() != 0 {
		t.Errorf("local thread migration sent %d messages", r.col.TotalMessages())
	}
}

func TestActiveMessagesModelCheaper(t *testing.T) {
	am := cost.Software().WithActiveMessages()
	if am.ThreadCreation != 0 {
		t.Error("active messages still create threads")
	}
	sw := cost.Software()
	if am.RecvOverhead(8, false) >= sw.RecvOverhead(8, false) {
		t.Error("active-message receive not cheaper")
	}
	// And it composes with the hardware estimates.
	both := cost.Hardware().WithActiveMessages()
	if both.RecvOverhead(8, false) >= am.RecvOverhead(8, false) {
		t.Error("AM+HW not cheaper than AM alone")
	}
}
