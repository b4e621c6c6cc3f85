// Tuning: the paper's §3.1 claim in action — the migration annotation is
// a performance knob, not a semantic one. A two-phase procedure makes
// many accesses to object A and then one access to object B. We try all
// placements of the annotation and show the answer never changes while
// the cost does. Migrating at A is what pays: the long run of accesses
// becomes local. The best placement also migrates at B, even though B
// is touched only once: once the frame is at A, a hop to B plus the
// short-circuited return home is one message fewer than a round trip
// from A to B and back, then the return.
//
// Run with: go run ./examples/tuning
package main

import (
	"fmt"

	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/machine"
	"compmig/internal/msg"
	"compmig/internal/sim"
)

const (
	accessesA = 12 // long run of accesses to A
	accessesB = 1  // single access to B
	work      = 20 // user-code cycles per access
)

// record is the state of objects A and B; an access charges work and
// keeps nothing in it.
type record struct{}

// phaseReply returns the combined count.
type phaseReply struct{ total uint64 }

func (r *phaseReply) MarshalWords(w *msg.Writer)          { w.PutU64(r.total) }
func (r *phaseReply) UnmarshalWords(rd *msg.Reader) error { r.total = rd.U64(); return rd.Err() }

// plan says where the procedure migrates: at its accesses to A, to B,
// both, or neither (pure RPC).
type plan uint32

const (
	atA plan = 1 << iota
	atB
)

func (p plan) String() string {
	switch p {
	case atA | atB:
		return "migrate at A and at B"
	case atA:
		return "migrate at A, RPC to B"
	case atB:
		return "RPC to A, migrate at B"
	default:
		return "RPC everywhere"
	}
}

// phaseCont is the two-phase procedure, one Walker for every placement.
// Its live variables: which phase it is in, the running total, and the
// object ids. It visits the object it migrates to next, or else the
// place it already runs — the last object it migrated to, or the
// requester's anchor — and makes its accesses from there: local calls
// where it sits at the object, remote calls otherwise.
type phaseCont struct {
	w     *world
	p     plan
	phase uint32 // 0: at A, 1: at B
	total phaseReply
	a, b  gid.GID
}

func (c *phaseCont) MarshalWords(w *msg.Writer) {
	w.PutU32(uint32(c.p))
	w.PutU32(c.phase)
	w.PutU64(c.total.total)
	w.PutU64(uint64(c.a))
	w.PutU64(uint64(c.b))
}

func (c *phaseCont) UnmarshalWords(r *msg.Reader) error {
	c.p = plan(r.U32())
	c.phase = r.U32()
	c.total.total = r.U64()
	c.a = gid.GID(r.U64())
	c.b = gid.GID(r.U64())
	return r.Err()
}

func (c *phaseCont) At() gid.GID {
	switch {
	case c.phase == 1 && c.p&atB != 0:
		return c.b
	case c.p&atA != 0:
		return c.a
	default:
		return c.w.anchor
	}
}

func (c *phaseCont) Result() core.Result { return &c.total }

// Visit runs the current phase's accesses.
func (c *phaseCont) Visit(t *core.Task, _ any, _ core.Mechanism) bool {
	if c.phase == 0 {
		for i := 0; i < accessesA; i++ {
			c.total.total += c.w.touch(t, c.a)
		}
		c.phase = 1
		return false
	}
	for i := 0; i < accessesB; i++ {
		c.total.total += c.w.touch(t, c.b)
	}
	return true
}

// RPC is Visit from the requester.
func (c *phaseCont) RPC(t *core.Task) bool { return c.Visit(t, nil, core.RPC) }

// world holds the two objects, the requester's anchor, and the
// registered procedures.
type world struct {
	a, b, anchor gid.GID

	mTouch core.MethodID
	cont   core.ContID
}

// touch performs one access: local when the task is at the object (the
// migrated case), a remote call otherwise.
func (w *world) touch(t *core.Task, g gid.GID) uint64 {
	var rep phaseReply
	if err := t.Call(g, w.mTouch, nil, &rep); err != nil {
		panic(err)
	}
	return rep.total
}

// plans lists every placement of the annotation, in printing order.
var plans = []plan{0, atB, atA, atA | atB}

// run executes the procedure under plan p on a fresh machine.
func run(p plan) (total uint64, cycles sim.Time, messages uint64) {
	// Thread on 0, A on 1, B on 2.
	m := machine.New("tuning", machine.Config{Seed: 11, Scheme: core.Scheme{Mechanism: core.Migrate}}, 3)
	rt := m.RT
	w := &world{a: rt.Objects.New(1, &record{}), b: rt.Objects.New(2, &record{})}
	// The anchor is where the record sits until it first migrates.
	w.anchor = rt.Objects.New(0, &record{})
	w.mTouch = rt.RegisterMethod("tuning.touch", true,
		func(t *core.Task, _ any, _ *msg.Reader, reply *msg.Writer) {
			t.Work(work)
			reply.PutU64(1)
		})
	w.cont = core.RegisterWalker(rt, "tuning.phase", func(c *phaseCont) { c.w = w })

	m.Eng.Spawn("client", 0, func(th *sim.Thread) {
		task := rt.NewTask(th, 0)
		start := th.Now()
		c := task.Record(w.cont).(*phaseCont)
		*c = phaseCont{w: w, p: p, a: w.a, b: w.b}
		task.Walk(core.Migrate, w.cont, c)
		total = c.total.total
		cycles = th.Now() - start
	})
	return total, cycles, m.Run(&machine.Result{}).TotalMessages()
}

func main() {
	fmt.Printf("two-phase procedure: %d accesses to A (proc 1), then %d to B (proc 2)\n\n",
		accessesA, accessesB)
	fmt.Printf("%-26s %8s %10s %10s\n", "annotation placement", "result", "cycles", "messages")
	for _, p := range plans {
		total, cycles, messages := run(p)
		fmt.Printf("%-26s %8d %10d %10d\n", p, total, cycles, messages)
	}
	fmt.Println()
	fmt.Println("every placement computes the same result; only the cost moves.")
	fmt.Println("changing the annotation is a one-line tuning edit (§3.1).")
}
