package core

import (
	"errors"
	"reflect"
	"testing"

	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/sim"
)

// newFaultRig builds the standard rig with a fault injector attached.
// The plan injects nothing on its own — callers script faults onto it —
// so a scripted run and an unscripted control pay identical framing and
// ack charges and differ only in the scripted fault.
func newFaultRig(t *testing.T, nprocs int) (*rig, *fault.Injector) {
	t.Helper()
	r := newRig(t, nprocs, cost.Software())
	inj := fault.NewInjector(&fault.Spec{RTO: 500, RTOMax: 2000})
	r.rt.Net.AttachFaults(inj)
	return r, inj
}

// outcome captures everything a fault must not change: the caller's
// answer plus every cell's value, read count, and current home.
type outcome struct {
	answer uint64
	vals   []uint64
	reads  []int
	homes  []int
}

func (r *rig) outcome(answer uint64) outcome {
	o := outcome{answer: answer}
	for _, g := range r.cells {
		c := r.rt.Objects.State(g).(*cell)
		o.vals = append(o.vals, c.val)
		o.reads = append(o.reads, c.reads)
		o.homes = append(o.homes, r.rt.Objects.Home(g))
	}
	return o
}

// Each recovery scenario drops or duplicates one protocol message and
// must converge to the exact answer, object state, and placement of the
// unscripted control run.
func TestRecoveryConvergesToFaultFreeOutcome(t *testing.T) {
	driveRPC := func(t *testing.T, r *rig) uint64 {
		var got uint64
		r.eng.Spawn("req", 0, func(th *sim.Thread) {
			task := r.rt.NewTask(th, 0)
			var rep cellReply
			if err := task.Call(r.cells[3], r.mAdd, &cellArg{delta: 5}, &rep); err != nil {
				t.Error(err)
			}
			got = rep.val
		})
		r.run(t)
		return got
	}
	driveMigrate := func(t *testing.T, r *rig) uint64 {
		var got uint64
		r.eng.Spawn("req", 0, func(th *sim.Thread) {
			got = r.sum(r.rt.NewTask(th, 0), r.cells[1:4], nil)
		})
		r.run(t)
		return got
	}
	drivePull := func(t *testing.T, r *rig) uint64 {
		var got uint64
		r.eng.Spawn("req", 0, func(th *sim.Thread) {
			task := r.rt.NewTask(th, 0)
			if err := task.PullObject(r.cells[3], 16); err != nil {
				t.Error(err)
				return
			}
			var rep cellReply
			if err := task.Call(r.cells[3], r.mGet, nil, &rep); err != nil {
				t.Error(err)
			}
			got = rep.val
		})
		r.run(t)
		return got
	}

	cases := []struct {
		name   string
		script func(*fault.Injector)
		drive  func(*testing.T, *rig) uint64
	}{
		{"dropped rpc request", func(i *fault.Injector) { i.ScriptDrop("rpc", 1) }, driveRPC},
		{"dropped rpc reply", func(i *fault.Injector) { i.ScriptDrop("reply", 1) }, driveRPC},
		{"duplicated migration", func(i *fault.Injector) { i.ScriptDup("migrate", 1) }, driveMigrate},
		{"dropped migration", func(i *fault.Injector) { i.ScriptDrop("migrate", 2) }, driveMigrate},
		{"duplicated object fetch", func(i *fault.Injector) { i.ScriptDup("obj-fetch", 1) }, drivePull},
		{"dropped object move", func(i *fault.Injector) { i.ScriptDrop("obj-move", 1) }, drivePull},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			control, _ := newFaultRig(t, 4)
			want := control.outcome(c.drive(t, control))

			faulty, inj := newFaultRig(t, 4)
			c.script(inj)
			got := faulty.outcome(c.drive(t, faulty))

			if !reflect.DeepEqual(got, want) {
				t.Errorf("faulty run diverged:\n got %+v\nwant %+v", got, want)
			}
			rec := inj.Counters.Retransmits + inj.Counters.DupSuppressed
			if rec == 0 {
				t.Errorf("scripted fault exercised no recovery: %+v", inj.Counters)
			}
		})
	}
}

// Under 100% drop every remote protocol must end in a typed give-up
// error after its bounded attempt budget — and the event loop must
// drain, not hang. A message forwarded from a stale location is a new
// leg on the wire: the forwarded cases move the object to processor 2
// first, then lose every transmission of the leg processor 1 forwards,
// and the origin's operation must fail the same way.
func TestTimeoutStormEndsInGiveUp(t *testing.T) {
	// moveAway pulls cells[1] to processor 2, so a request processor 0
	// addresses to the object's birth home is forwarded.
	moveAway := func(t *testing.T, r *rig, task *Task) {
		away := r.rt.NewTask(task.Thread(), 2)
		if err := away.PullObject(r.cells[1], 16); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		// forwarded names the message kind whose forward leg is lost
		// (its transmissions 2 on); empty means every message is lost.
		forwarded string
		op        func(*testing.T, *rig, *Task) error
	}{
		{"rpc", "", func(t *testing.T, r *rig, task *Task) error {
			var rep cellReply
			return task.Call(r.cells[1], r.mGet, nil, &rep)
		}},
		{"migrate", "", func(t *testing.T, r *rig, task *Task) error {
			// Walk's computation-migration case, which returns the error
			// Walk panics with.
			return task.do(r.cSum, r.record(task, r.cells[1:2], nil))
		}},
		{"object pull", "", func(t *testing.T, r *rig, task *Task) error {
			return task.PullObject(r.cells[1], 16)
		}},
		{"forwarded rpc", "rpc", func(t *testing.T, r *rig, task *Task) error {
			moveAway(t, r, task)
			var rep cellReply
			return task.Call(r.cells[1], r.mGet, nil, &rep)
		}},
		{"forwarded pull", "obj-fetch", func(t *testing.T, r *rig, task *Task) error {
			moveAway(t, r, task) // the first obj-fetch
			return task.PullObject(r.cells[1], 16)
		}},
	}
	const attempts = 3
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 3, cost.Software())
			spec := &fault.Spec{Drop: 1, RTO: 100, RTOMax: 200, MaxAttempts: attempts}
			if c.forwarded != "" {
				spec.Drop = 0
			}
			inj := fault.NewInjector(spec)
			if c.forwarded != "" {
				// Transmission 1 of the kind is the leg to the stale home
				// (after moveAway's own fetch, for a pull).
				first := 2
				if c.forwarded == "obj-fetch" {
					first = 3
				}
				for n := first; n < first+attempts; n++ {
					inj.ScriptDrop(c.forwarded, n)
				}
			}
			r.rt.Net.AttachFaults(inj)

			var err error
			r.eng.Spawn("req", 0, func(th *sim.Thread) {
				err = c.op(t, r, r.rt.NewTask(th, 0))
			})
			r.run(t) // the loop drains — a hang here is the bug

			var gu *fault.GiveUpError
			if !errors.As(err, &gu) {
				t.Fatalf("error = %v (%T), want *fault.GiveUpError", err, err)
			}
			if gu.Attempts != attempts {
				t.Errorf("gave up after %d attempts, want %d", gu.Attempts, attempts)
			}
			if c.forwarded != "" && (gu.Kind != c.forwarded || gu.Src != 1 || gu.Dst != 2) {
				t.Errorf("gave up on %s p%d->p%d, want the forwarded %s p1->p2", gu.Kind, gu.Src, gu.Dst, c.forwarded)
			}
			if inj.Counters.GiveUps != 1 {
				t.Errorf("counters = %+v", inj.Counters)
			}
		})
	}
}
