package core

import (
	"testing"

	"compmig/internal/cost"
	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/sim"
)

// The message path's per-operation allocation counts, pinned so that a
// closure, a boxed reply, a per-message Task or a per-message wire
// message creeping back fails the suite. Wire messages and their
// payload arrays come from the lanes' pools, and so do the records a
// migration decodes into, so a warm path allocates nothing.

// hopCont visits one object and returns its cell's value: the smallest
// computation-migration round trip.
type hopCont struct {
	g   gid.GID
	res cellReply
}

func (c *hopCont) MarshalWords(w *msg.Writer) { w.PutU64(uint64(c.g)); w.PutU64(c.res.val) }

func (c *hopCont) UnmarshalWords(r *msg.Reader) error {
	c.g, c.res.val = gid.GID(r.U64()), r.U64()
	return r.Err()
}

func (c *hopCont) At() gid.GID    { return c.g }
func (c *hopCont) Result() Result { return &c.res }
func (c *hopCont) RPC(*Task) bool { panic("hopCont runs under computation migration") }

func (c *hopCont) Visit(_ *Task, state any, _ Mechanism) bool {
	c.res.val = state.(*cell).val
	return true
}

// allocsPerOp warms a 2-processor crossbar runtime with op, run by a
// requester on processor 0, then returns op's allocations per call.
func allocsPerOp(t *testing.T, op func(r *rig, task *Task) error) float64 {
	t.Helper()
	r := newRig(t, 2, cost.Software())
	var n float64
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 0)
		call := func() {
			if err := op(r, task); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 10; i++ {
			call() // fill the arrival, reply-slot, event and thread pools
		}
		n = testing.AllocsPerRun(200, call)
	})
	r.run(t)
	t.Logf("%v allocations per operation", n)
	return n
}

func TestRemoteCallAllocs(t *testing.T) {
	arg := &cellArg{delta: 1}
	var rep cellReply
	n := allocsPerOp(t, func(r *rig, task *Task) error {
		return task.Call(r.cells[1], r.mAdd, arg, &rep)
	})
	if n > 0 {
		t.Errorf("remote Call round trip allocates %v objects, want at most 0", n)
	}
}

func TestMigrateHopAllocs(t *testing.T) {
	var id ContID
	registered := false
	n := allocsPerOp(t, func(r *rig, task *Task) error {
		if !registered {
			id, registered = r.rt.RegisterWalker("hop", func() Walker { return &hopCont{} }), true
		}
		w := task.Record(id).(*hopCont)
		w.g = r.cells[1]
		task.Walk(Migrate, id, w)
		return nil
	})
	if n > 0 {
		t.Errorf("CM hop plus its return allocates %v objects, want 0", n)
	}
}

func TestLocalCallAllocs(t *testing.T) {
	arg := &cellArg{delta: 1}
	var rep cellReply
	n := allocsPerOp(t, func(r *rig, task *Task) error {
		return task.Call(r.cells[0], r.mAdd, arg, &rep)
	})
	if n != 0 {
		t.Errorf("local Call allocates %v objects, want 0", n)
	}
}
