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
// payload arrays come from the lanes' pools, so the only allocation
// left on a warm path is, per migration hop of a plain Continuation,
// the record its factory makes for the receiver to decode into (a
// Walker's record is pooled too).

// hopCont visits one object and returns its cell's value: the smallest
// computation-migration round trip.
type hopCont struct {
	id  ContID
	g   gid.GID
	val uint64
}

func (c *hopCont) MarshalWords(w *msg.Writer) { w.PutU64(uint64(c.g)); w.PutU64(c.val) }

func (c *hopCont) UnmarshalWords(r *msg.Reader) error {
	c.g, c.val = gid.GID(r.U64()), r.U64()
	return r.Err()
}

func (c *hopCont) Run(t *Task) {
	if !t.IsLocal(c.g) {
		t.Migrate(c.g, c.id, c)
		return
	}
	c.val = t.State(c.g).(*cell).val
	t.Return(c)
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
	var entry, out hopCont
	n := allocsPerOp(t, func(r *rig, task *Task) error {
		if entry.g == 0 {
			entry = hopCont{id: r.rt.RegisterCont("hop", func() Continuation { return &hopCont{} }), g: r.cells[1]}
		}
		return task.Do(&entry, &out)
	})
	// The continuation record decoded at the destination.
	if n > 1 {
		t.Errorf("CM hop plus Return allocates %v objects, want at most 1", n)
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
