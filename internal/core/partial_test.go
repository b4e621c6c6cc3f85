package core

import (
	"testing"

	"compmig/internal/cost"
	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/sim"
)

// probeCont is the small migrated half: it reads one cell remotely.
type probeCont struct {
	r   *rig
	id  ContID
	cur gid.GID
}

func (c *probeCont) MarshalWords(w *msg.Writer)         { w.PutU64(uint64(c.cur)) }
func (c *probeCont) UnmarshalWords(r *msg.Reader) error { c.cur = gid.GID(r.U64()); return r.Err() }

func (c *probeCont) Run(t *Task) {
	if !t.IsLocal(c.cur) {
		t.Migrate(c.cur, c.id, c)
		return
	}
	st := t.State(c.cur).(*cell)
	t.Work(10)
	t.Return(&cellReply{val: st.val})
}

// heavyResidual is the stay-behind half: it owns a large working buffer
// that never leaves its processor and combines it with the probe result.
type heavyResidual struct {
	r      *rig
	weight uint64
	buf    []uint32 // the big local state that stays home
}

func (h *heavyResidual) MarshalWords(w *msg.Writer) {
	w.PutU64(h.weight)
	w.PutU32s(h.buf)
}

func (h *heavyResidual) UnmarshalWords(r *msg.Reader) error {
	h.weight = r.U64()
	h.buf = r.U32s()
	return r.Err()
}

func (h *heavyResidual) Run(t *Task) { panic("residuals are resumed, not run") }

func (h *heavyResidual) Resume(t *Task, result *msg.Reader) {
	var rep cellReply
	if err := rep.UnmarshalWords(result); err != nil {
		panic(err)
	}
	t.Work(20)
	t.Return(&cellReply{val: rep.val*h.weight + uint64(len(h.buf))})
}

func TestMigratePartialKeepsHeavyStateHome(t *testing.T) {
	r := newRig(t, 3, cost.Software())
	probeID := r.rt.RegisterCont("partial.probe", func() Continuation { return &probeCont{r: r} })
	residID := r.rt.RegisterCont("partial.residual", func() Continuation { return &heavyResidual{r: r} })

	var got uint64
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 0)
		id, slot := r.rt.newReply(0)
		child := &Task{rt: r.rt, th: th, proc: task.proc, reply: replyHandle{proc: 0, id: id}}
		child.MigratePartial(r.cells[2], probeID,
			&probeCont{r: r, id: probeID, cur: r.cells[2]},
			residID, &heavyResidual{r: r, weight: 100, buf: make([]uint32, 500)})
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
	// cell[2].val = 3; 3*100 + 500 = 800.
	if got != 800 {
		t.Fatalf("got %d, want 800", got)
	}
	// The 500-word buffer never crossed the network: total traffic is the
	// small probe + its reply (and the residual's final local delivery).
	if r.col.WordsSent > 60 {
		t.Errorf("partial migration moved %d words; heavy state leaked onto the wire", r.col.WordsSent)
	}
	if r.col.MigrationsSent != 1 || r.col.TotalMessages() != 2 {
		t.Errorf("%d migrations, %d messages, want 1 migration + 1 reply", r.col.MigrationsSent, r.col.TotalMessages())
	}
}

func TestMigratePartialLocalInline(t *testing.T) {
	r := newRig(t, 3, cost.Software())
	probeID := r.rt.RegisterCont("partial.probe2", func() Continuation { return &probeCont{r: r} })
	residID := r.rt.RegisterCont("partial.residual2", func() Continuation { return &heavyResidual{r: r} })

	var got uint64
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 2) // co-located with the target
		id, slot := r.rt.newReply(2)
		child := &Task{rt: r.rt, th: th, proc: task.proc, reply: replyHandle{proc: 2, id: id}}
		child.MigratePartial(r.cells[2], probeID,
			&probeCont{r: r, id: probeID, cur: r.cells[2]},
			residID, &heavyResidual{r: r, weight: 2, buf: nil})
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
	if got != 6 { // 3*2 + 0
		t.Fatalf("got %d, want 6", got)
	}
	if r.col.TotalMessages() != 0 {
		t.Errorf("local partial migration sent %d messages", r.col.TotalMessages())
	}
}

// TestPartialVsFullFrameTradeoff quantifies the tuning knob: with a
// heavy frame, partial migration moves far fewer words than pushing the
// whole frame along.
func TestPartialVsFullFrameTradeoff(t *testing.T) {
	fullWords := func() uint64 {
		r := newRig(t, 3, cost.Software())
		probeID := r.rt.RegisterCont("pf.probe", func() Continuation { return &probeCont{r: r} })
		residID := r.rt.RegisterCont("pf.resid", func() Continuation { return &heavyResidual{r: r} })
		r.eng.Spawn("req", 0, func(th *sim.Thread) {
			id, slot := r.rt.newReply(0)
			child := &Task{rt: r.rt, th: th, proc: r.m.Proc(0), reply: replyHandle{proc: 0, id: id}}
			child.PushFrame(residID, &heavyResidual{r: r, weight: 1, buf: make([]uint32, 400)})
			(&probeCont{r: r, id: probeID, cur: r.cells[2]}).Run(child)
			slot.wait(th)
		})
		r.run(t)
		return r.col.WordsSent
	}()
	partialWords := func() uint64 {
		r := newRig(t, 3, cost.Software())
		probeID := r.rt.RegisterCont("pp.probe", func() Continuation { return &probeCont{r: r} })
		residID := r.rt.RegisterCont("pp.resid", func() Continuation { return &heavyResidual{r: r} })
		r.eng.Spawn("req", 0, func(th *sim.Thread) {
			id, slot := r.rt.newReply(0)
			child := &Task{rt: r.rt, th: th, proc: r.m.Proc(0), reply: replyHandle{proc: 0, id: id}}
			child.MigratePartial(r.cells[2], probeID,
				&probeCont{r: r, id: probeID, cur: r.cells[2]},
				residID, &heavyResidual{r: r, weight: 1, buf: make([]uint32, 400)})
			slot.wait(th)
		})
		r.run(t)
		return r.col.WordsSent
	}()
	if partialWords*4 > fullWords {
		t.Errorf("partial (%d words) not well below full-frame (%d words)", partialWords, fullWords)
	}
}
