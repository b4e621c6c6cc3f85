package core

import (
	"testing"

	"compmig/internal/cost"
	"compmig/internal/gid"
	"compmig/internal/sim"
)

// fixedChooser always picks m and keeps the last duration it was told.
type fixedChooser struct {
	m      Mechanism
	begins int
	last   uint64
}

func (c *fixedChooser) Begin(int, gid.GID) Mechanism          { c.begins++; return c.m }
func (c *fixedChooser) End(_ int, _ Mechanism, cycles uint64) { c.last = cycles }

// TestChooseSite checks both kinds of call site: a static site runs
// under its own mechanism and reports nothing, and a chooser's site runs
// under the chooser's pick and reports the operation's duration. Neither
// bracket allocates.
func TestChooseSite(t *testing.T) {
	r := newRig(t, 2, cost.Software())
	ch := &fixedChooser{m: Migrate}
	static, chosen := Site{Mech: RPC}, Site{Mech: RPC, Chooser: ch}
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 0)
		if op := task.Choose(&static, r.cells[1]); op.Mech != RPC {
			t.Errorf("static site chose %v, want RPC", op.Mech)
		} else {
			op.Done(task)
		}
		op := task.Choose(&chosen, r.cells[1])
		if op.Mech != Migrate {
			t.Errorf("chooser's site chose %v, want CM", op.Mech)
		}
		task.Work(7)
		op.Done(task)
		if ch.begins != 1 || ch.last != 7 {
			t.Errorf("chooser saw %d begins, last duration %d; want 1 and 7", ch.begins, ch.last)
		}
		for _, site := range []*Site{&static, &chosen} {
			if n := testing.AllocsPerRun(50, func() { task.Choose(site, r.cells[1]).Done(task) }); n != 0 {
				t.Errorf("Choose/Done allocated %v times per operation", n)
			}
		}
	})
	r.run(t)
}
