package core

import (
	"testing"

	"compmig/internal/cost"
	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/profile"
	"compmig/internal/sim"
)

// A thread's sends are split-phase: it books the send path on its
// processor and carries on, so it parks only to wait for a reply and
// never to pay its own send path. These pins count the coroutine
// switches (engine.handoffs) of a run of one operation while an event is
// pending in every cycle, so a thread that waited out its send path
// could never jump the clock past the segment and would park and resume
// once per send, two switches more per send.

// switchesPerOp runs op once from a requester thread on processor 0 of
// a 3-processor crossbar while a no-op ticker keeps an event pending in
// every cycle, and returns the run's engine.handoffs less the
// requester's own two (its start and its exit).
func switchesPerOp(t *testing.T, op func(r *rig, task *Task) error) uint64 {
	t.Helper()
	r := newRig(t, 3, cost.Software())
	done := false
	var tick func()
	tick = func() {
		if !done {
			r.eng.Schedule(1, tick)
		}
	}
	r.eng.Schedule(0, tick)
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		if err := op(r, r.rt.NewTask(th, 0)); err != nil {
			t.Error(err)
		}
		done = true
	})
	before := profile.EngineHandoffs.Count.Load()
	r.run(t)
	return profile.EngineHandoffs.Count.Load() - before - 2
}

// twoHopCont sums the cells at two objects, visiting each in turn: the
// smallest computation-migration operation that ships a record twice.
type twoHopCont struct {
	at  [2]gid.GID
	i   uint32
	res cellReply
}

func (c *twoHopCont) MarshalWords(w *msg.Writer) {
	w.PutU64(uint64(c.at[0]))
	w.PutU64(uint64(c.at[1]))
	w.PutU32(c.i)
	w.PutU64(c.res.val)
}

func (c *twoHopCont) UnmarshalWords(r *msg.Reader) error {
	c.at[0], c.at[1] = gid.GID(r.U64()), gid.GID(r.U64())
	c.i, c.res.val = r.U32(), r.U64()
	return r.Err()
}

func (c *twoHopCont) At() gid.GID    { return c.at[c.i] }
func (c *twoHopCont) Result() Result { return &c.res }
func (c *twoHopCont) RPC(*Task) bool { panic("twoHopCont runs under computation migration") }

func (c *twoHopCont) Visit(_ *Task, state any, _ Mechanism) bool {
	c.res.val += state.(*cell).val
	c.i++
	return c.i == 2
}

// A remote call to a short method: the requester parks once for the
// reply and resumes (2), and the handler thread starts and exits (2).
// With the send path waited out in Exec, the requester's request and
// the handler's reply each cost two more: 8.
func TestRemoteCallSwitches(t *testing.T) {
	var rep cellReply
	n := switchesPerOp(t, func(r *rig, task *Task) error {
		return task.Call(r.cells[1], r.mShort, nil, &rep)
	})
	if rep.val != 2 {
		t.Errorf("call read %d, want 2", rep.val)
	}
	if n != 4 {
		t.Errorf("remote call took %d switches, want 4", n)
	}
}

// A two-hop computation-migration operation: the requester parks once
// for the result and resumes (2), and each of the two activations starts
// and exits (4). With Exec, its three sends — two migrations and the
// reply — cost two switches each more: 12.
func TestTwoHopMigrationSwitches(t *testing.T) {
	var sum uint64
	n := switchesPerOp(t, func(r *rig, task *Task) error {
		id := RegisterWalker(r.rt, "two-hop", func(*twoHopCont) {})
		w := task.Record(id).(*twoHopCont)
		*w = twoHopCont{at: [2]gid.GID{r.cells[1], r.cells[2]}}
		task.Walk(Migrate, id, w)
		sum = w.res.val
		return nil
	})
	if sum != 2+3 {
		t.Errorf("walk summed %d, want 5", sum)
	}
	if n != 6 {
		t.Errorf("two-hop migration took %d switches, want 6", n)
	}
}

// An object pull: the requester parks once for the object and resumes
// (2); the fetch and the move run on no thread. With Exec, the fetch's
// send costs two more: 4.
func TestPullObjectSwitches(t *testing.T) {
	var moved bool
	n := switchesPerOp(t, func(r *rig, task *Task) error {
		err := task.PullObject(r.cells[1], 8)
		moved = task.IsLocal(r.cells[1])
		return err
	})
	if !moved {
		t.Error("the pulled object is not on the puller's processor")
	}
	if n != 2 {
		t.Errorf("object pull took %d switches, want 2", n)
	}
}

// sendOps are one operation for each kind of send a thread makes to an
// object's home: a remote call, a one-hop migration (hop is the rig's
// hopCont walker type) and an object pull.
var sendOps = []struct {
	name string
	op   func(r *rig, task *Task, hop ContID, g gid.GID) error
}{
	{"rpc", func(r *rig, task *Task, _ ContID, g gid.GID) error {
		var rep cellReply
		return task.Call(g, r.mShort, nil, &rep)
	}},
	{"migrate", func(r *rig, task *Task, hop ContID, g gid.GID) error {
		w := task.Record(hop).(*hopCont)
		w.g = g
		task.Walk(Migrate, hop, w)
		return nil
	}},
	{"fetch", func(r *rig, task *Task, _ ContID, g gid.GID) error { return task.PullObject(g, 8) }},
}

// A thread that does not wait for its send path still occupies its
// processor with it: work another thread starts there inside the
// segment runs only after it.
func TestSendPathOccupiesProcessor(t *testing.T) {
	for _, tc := range sendOps {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 2, cost.Software())
			hop := RegisterWalker(r.rt, "hop", func(*hopCont) {})
			r.eng.Spawn("req", 0, func(th *sim.Thread) {
				if err := tc.op(r, r.rt.NewTask(th, 0), hop, r.cells[1]); err != nil {
					t.Error(err)
				}
			})
			var done sim.Time
			r.eng.Spawn("worker", 1, func(th *sim.Thread) {
				r.rt.NewTask(th, 0).Work(10)
				done = th.Now()
			})
			r.run(t)
			// The segment booked at cycle 0 is at least the send path's
			// fixed part long; its marshal cycles come on top.
			m := &r.rt.Model
			if min := m.SendLinkage + m.SendAllocPacket + m.MessageSend + 10; done < sim.Time(min) {
				t.Errorf("work started at cycle 1 on the sender's processor ended at %d, want after the send segment (>= %d)", done, min)
			}
		})
	}
}

// A message bound for an object's home is addressed when it leaves, not
// when its send path is booked: a location the sending processor learns
// while the segment runs (here from a callback, in a run from another
// thread's reply or pull) sends it straight to the object, where an
// address read at booking would go to the stale birth home and be
// forwarded.
func TestSendAddressedWhenItLeaves(t *testing.T) {
	for _, tc := range sendOps {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 4, cost.Software())
			hop := RegisterWalker(r.rt, "hop", func(*hopCont) {})
			g := r.cells[3]
			r.rt.Objects.Move(g, 2)
			// Cycle 1 is inside the send segment booked at cycle 0.
			r.eng.Schedule(1, func() { r.rt.learn(0, g, 2) })
			r.eng.Spawn("req", 0, func(th *sim.Thread) {
				if err := tc.op(r, r.rt.NewTask(th, 0), hop, g); err != nil {
					t.Error(err)
				}
			})
			r.run(t)
			if r.col.Forwards != 0 {
				t.Errorf("%d messages forwarded, want the send addressed to the hint learned before it left", r.col.Forwards)
			}
		})
	}
}

// A send path of no cycles leaves at once, as a thread's Exec of no
// cycles returns at once, even while the processor is busy with other
// work: under a model that charges nothing, a request sent while
// another thread holds the sender's processor reaches its handler in the
// same cycle.
func TestZeroCycleSendLeavesAtOnce(t *testing.T) {
	r := newRig(t, 2, cost.Model{})
	var ran sim.Time
	mWhen := r.rt.RegisterMethod("cell.when", true, func(t *Task, _ any, _ *msg.Reader, _ *msg.Writer) {
		ran = t.Now()
	})
	r.eng.Spawn("worker", 0, func(th *sim.Thread) { r.rt.NewTask(th, 0).Work(100) })
	r.eng.Spawn("req", 1, func(th *sim.Thread) {
		if err := r.rt.NewTask(th, 0).Call(r.cells[1], mWhen, nil, nil); err != nil {
			t.Error(err)
		}
	})
	r.run(t)
	if ran != 1 {
		t.Errorf("handler ran at cycle %d, want 1: the request waited for the busy processor", ran)
	}
}
