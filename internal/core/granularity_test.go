package core

import (
	"testing"

	"compmig/internal/cost"
	"compmig/internal/msg"
	"compmig/internal/sim"
)

// The grain of migration is what the record carries. A whole thread is
// a record that carries its stack as words (§2.3's comparison point); a
// caller's frame migrating with its callee is a record whose fields hold
// the caller's live variables (§6's multiple activations); and a partial
// activation is a small record walked while the rest of the frame stays
// with the requester, which resumes it when Walk returns (§6's partial
// activations).

func TestThreadMigrationCostsScaleWithStack(t *testing.T) {
	run := func(stackWords int) (uint64, sim.Time) {
		r := newRig(t, 3, cost.Software())
		var dur sim.Time
		r.eng.Spawn("req", 0, func(th *sim.Thread) {
			start := th.Now()
			r.sum(r.rt.NewTask(th, 0), r.cells[1:2], make([]uint32, stackWords))
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
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		r.sum(r.rt.NewTask(th, 1), r.cells[1:2], make([]uint32, 256))
	})
	r.run(t)
	if r.col.TotalMessages() != 0 {
		t.Errorf("local thread migration sent %d messages", r.col.TotalMessages())
	}
}

// scaledSum is a caller frame migrating with its callee: the caller's
// live variable, factor, rides in the record, and the caller's remaining
// work, scaling the callee's sum, runs wherever the last visit leaves
// the record.
type scaledSum struct {
	sumCont
	factor uint64
}

func (c *scaledSum) MarshalWords(w *msg.Writer) { c.sumCont.MarshalWords(w); w.PutU64(c.factor) }

func (c *scaledSum) UnmarshalWords(r *msg.Reader) error {
	c.sumCont.UnmarshalWords(r)
	c.factor = r.U64()
	return r.Err()
}

func (c *scaledSum) Visit(t *Task, state any, mech Mechanism) bool {
	return c.scale(c.sumCont.Visit(t, state, mech))
}

func (c *scaledSum) RPC(t *Task) bool { return c.scale(c.sumCont.RPC(t)) }

func (c *scaledSum) scale(done bool) bool {
	if done {
		c.res.val *= c.factor
	}
	return done
}

func TestMultiFrameMigration(t *testing.T) {
	r := newRig(t, 5, cost.Software())
	id := RegisterWalker(r.rt, "scaled", func(s *scaledSum) { s.r = r })
	var got uint64
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 0)
		w := task.Record(id).(*scaledSum)
		*w = scaledSum{sumCont: sumCont{r: r, cells: r.cells[1:4]}, factor: 10}
		task.Walk(Migrate, id, w)
		got = w.res.val
	})
	r.run(t)
	// Sum of cells 1..3 is 2+3+4 = 9; the caller's frame multiplies by 10.
	if got != 90 {
		t.Fatalf("got %d, want 90", got)
	}
	// The caller's frame rode inside the migrate messages: 3 migrations,
	// one final reply — resuming the caller's work cost no message.
	if r.col.MigrationsSent != 3 || r.col.TotalMessages() != 4 {
		t.Errorf("%d migrations, %d messages, want 3 migrations + 1 reply", r.col.MigrationsSent, r.col.TotalMessages())
	}
}

// partial walks a one-cell probe from a requester on processor proc to
// cell target, while the requester's heavy buffer buf stays home, then
// combines the probe's value with it there.
func partial(t *testing.T, proc, target int, weight uint64, buf []uint32) (*rig, uint64) {
	r := newRig(t, 3, cost.Software())
	var got uint64
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, proc)
		val := r.sum(task, r.cells[target:target+1], nil)
		task.Work(20)
		got = val*weight + uint64(len(buf))
	})
	r.run(t)
	return r, got
}

func TestMigratePartialKeepsHeavyStateHome(t *testing.T) {
	r, got := partial(t, 0, 2, 100, make([]uint32, 500))
	// cell[2].val = 3; 3*100 + 500 = 800.
	if got != 800 {
		t.Fatalf("got %d, want 800", got)
	}
	// The 500-word buffer never crossed the network: total traffic is the
	// small probe and its reply.
	if r.col.WordsSent > 60 {
		t.Errorf("partial migration moved %d words; heavy state leaked onto the wire", r.col.WordsSent)
	}
	if r.col.MigrationsSent != 1 || r.col.TotalMessages() != 2 {
		t.Errorf("%d migrations, %d messages, want 1 migration + 1 reply", r.col.MigrationsSent, r.col.TotalMessages())
	}
}

func TestMigratePartialLocalInline(t *testing.T) {
	r, got := partial(t, 2, 2, 2, nil) // co-located with the target
	if got != 6 {                      // 3*2 + 0
		t.Fatalf("got %d, want 6", got)
	}
	if r.col.TotalMessages() != 0 {
		t.Errorf("local partial migration sent %d messages", r.col.TotalMessages())
	}
}

// TestPartialVsFullFrameTradeoff quantifies the tuning knob: with a
// heavy frame, migrating part of it moves far fewer words than carrying
// the whole frame along.
func TestPartialVsFullFrameTradeoff(t *testing.T) {
	buf := make([]uint32, 400)
	full := newRig(t, 3, cost.Software())
	full.eng.Spawn("req", 0, func(th *sim.Thread) {
		full.sum(full.rt.NewTask(th, 0), full.cells[2:3], buf)
	})
	full.run(t)
	part, _ := partial(t, 0, 2, 1, buf)
	if part.col.WordsSent*4 > full.col.WordsSent {
		t.Errorf("partial (%d words) not well below full-frame (%d words)", part.col.WordsSent, full.col.WordsSent)
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
