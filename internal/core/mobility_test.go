package core

import (
	"testing"

	"compmig/internal/cost"
	"compmig/internal/gid"
	"compmig/internal/sim"
)

func TestPullObjectMovesState(t *testing.T) {
	r := newRig(t, 4, cost.Software())
	g := r.cells[3]
	r.eng.Spawn("puller", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 0)
		if task.IsLocal(g) {
			t.Error("object local before pull")
		}
		task.PullObject(g, 16)
		if !task.IsLocal(g) {
			t.Error("object not local after pull")
		}
		// Local access now works without messages.
		before := r.col.TotalMessages()
		var rep cellReply
		if err := task.Call(g, r.mGet, nil, &rep); err != nil {
			t.Error(err)
		}
		if rep.val != 4 {
			t.Errorf("state lost in move: %d", rep.val)
		}
		if r.col.TotalMessages() != before {
			t.Error("local call after pull sent messages")
		}
	})
	r.run(t)
	if r.rt.Objects.Home(g) != 0 {
		t.Errorf("object home = %d, want 0", r.rt.Objects.Home(g))
	}
	if r.rt.Objects.Home(g) == g.Home() {
		t.Error("object still at its birth processor after pull")
	}
	// Fetch + move = two messages.
	if r.col.TotalMessages() != 2 {
		t.Errorf("messages = %d, want a fetch and a move", r.col.TotalMessages())
	}
}

func TestPullLocalIsNoop(t *testing.T) {
	r := newRig(t, 2, cost.Software())
	r.eng.Spawn("puller", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 1)
		task.PullObject(r.cells[1], 16)
	})
	r.run(t)
	if r.col.TotalMessages() != 0 {
		t.Errorf("local pull sent %d messages", r.col.TotalMessages())
	}
}

// TestRPCForwardsToMovedObject: a call addressed with a stale location is
// forwarded by the old home and still completes; the caller learns the
// new location so the next call goes direct.
func TestRPCForwardsToMovedObject(t *testing.T) {
	r := newRig(t, 4, cost.Software())
	g := r.cells[3]
	done := &sim.Future{}
	r.eng.Spawn("mover", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 2)
		task.PullObject(g, 8) // object now lives on proc 2
		done.Complete(nil)
	})
	var first, second uint64
	r.eng.Spawn("caller", 0, func(th *sim.Thread) {
		done.Wait(th)
		task := r.rt.NewTask(th, 0)
		// Proc 0 has no hint: addresses proc 3, which must forward.
		var rep cellReply
		if err := task.Call(g, r.mAdd, &cellArg{delta: 1}, &rep); err != nil {
			t.Error(err)
		}
		first = r.col.Forwards
		// Second call: the caller learned the location, no forward.
		if err := task.Call(g, r.mAdd, &cellArg{delta: 1}, &rep); err != nil {
			t.Error(err)
		}
		second = r.col.Forwards
	})
	r.run(t)
	if first != 1 {
		t.Errorf("first call forwards = %d, want 1", first)
	}
	if second != first {
		t.Errorf("second call forwarded again (%d -> %d): location not learned", first, second)
	}
	// The object's state was updated at its new home.
	if st := r.rt.Objects.State(g).(*cell); st.val != 4+2 {
		t.Errorf("state = %d, want 6", st.val)
	}
}

// TestMigrationForwardsToMovedObject: a computation migration chasing a
// moved object is forwarded and still produces the right answer with a
// short-circuited return.
func TestMigrationForwardsToMovedObject(t *testing.T) {
	r := newRig(t, 5, cost.Software())
	g := r.cells[4]
	done := &sim.Future{}
	r.eng.Spawn("mover", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 1)
		task.PullObject(g, 8)
		done.Complete(nil)
	})
	var got uint64
	r.eng.Spawn("walker", 0, func(th *sim.Thread) {
		done.Wait(th)
		got = r.sum(r.rt.NewTask(th, 0), []gid.GID{g}, nil)
	})
	r.run(t)
	if got != 5 {
		t.Errorf("sum = %d, want 5", got)
	}
	if r.col.Forwards != 1 {
		t.Errorf("forwards = %d, want 1", r.col.Forwards)
	}
}

func TestObjectPingPong(t *testing.T) {
	// Two processors repeatedly pull the same object back and forth: the
	// write-shared pathology of whole-object migration (§2.2's "data
	// migration can perform poorly ... for write-shared data").
	r := newRig(t, 3, cost.Software())
	g := r.cells[2]
	const rounds = 10
	for p := 0; p < 2; p++ {
		p := p
		r.eng.Spawn("puller", sim.Time(p*7), func(th *sim.Thread) {
			task := r.rt.NewTask(th, p)
			for i := 0; i < rounds; i++ {
				for !task.IsLocal(g) {
					task.PullObject(g, 32)
				}
				// Touch the object locally (no yield between the check
				// and the access, so locality holds).
				r.rt.Objects.State(g).(*cell).reads++
				// Sleep past the pin window, so the other puller
				// may take the object before the next round.
				th.Sleep(r.rt.PinCycles + 50)
			}
		})
	}
	r.run(t)
	if got := r.rt.Objects.State(g).(*cell).reads; got != 2*rounds {
		t.Errorf("touches = %d, want %d", got, 2*rounds)
	}
	if r.rt.Objects.Moves < rounds/2 {
		t.Errorf("object moved only %d times; expected ping-pong", r.rt.Objects.Moves)
	}
}

func TestLinkagePacking(t *testing.T) {
	for _, c := range []struct {
		proc int
		id   uint32
	}{{0, 1}, {87, 1023}, {4095, 1<<20 - 1}} {
		p, id := unpackLinkage(packLinkage(c.proc, c.id))
		if p != c.proc || id != c.id {
			t.Errorf("linkage round trip (%d,%d) -> (%d,%d)", c.proc, c.id, p, id)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized proc accepted")
		}
	}()
	packLinkage(1<<12, 0)
}

func TestReplyIDsRecycled(t *testing.T) {
	r := newRig(t, 2, cost.Software())
	r.eng.Spawn("caller", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 0)
		for i := 0; i < 500; i++ {
			var rep cellReply
			if err := task.Call(r.cells[1], r.mGet, nil, &rep); err != nil {
				t.Error(err)
			}
		}
	})
	r.run(t)
	if n := len(r.rt.lanes[0].replies); n > 4 {
		t.Errorf("500 sequential calls consumed %d reply ids; free list not reused", n)
	}
}
