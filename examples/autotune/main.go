// Autotune: the paper's §6 closes with "we are also developing compiler
// analysis techniques for automatically choosing among the remote access
// mechanisms". This example plays that role: a procedure visits a chain
// of objects, making a different number of consecutive accesses to each.
// The advisor predicts, per object, whether shipping the frame beats
// calling remotely — and the mixed plan it produces beats both pure
// policies.
//
// Run with: go run ./examples/autotune
package main

import (
	"fmt"

	"compmig/internal/advisor"
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/machine"
	"compmig/internal/msg"
	"compmig/internal/sim"
)

// accesses[i] is how many consecutive accesses the procedure makes to
// object i: some objects are touched once, some hammered.
var accesses = []int{1, 9, 1, 6, 12, 1, 2, 8}

const (
	touchWork = 15
	// The procedure carries a scratch buffer (partial results) as live
	// state: migrating means shipping it on every hop, which is what
	// makes the choice interesting — with a tiny frame, §2.5's model
	// says migration simply always wins.
	scratchWords = 120
)

// item is one object of the chain; an access charges work and keeps
// nothing in it.
type item struct{}

type touchReply struct{ v uint64 }

func (r *touchReply) MarshalWords(w *msg.Writer)          { w.PutU64(r.v) }
func (r *touchReply) UnmarshalWords(rd *msg.Reader) error { r.v = rd.U64(); return rd.Err() }

// visitCont walks the chain under a per-object plan: bit i set means
// "migrate to object i", clear means "access it remotely via RPC". It
// visits the object it migrates to next, or else the place it already
// runs — the last object it migrated to, or the requester's anchor —
// and makes its accesses to the current object from there.
type visitCont struct {
	env     *env
	plan    uint32
	idx     uint32
	acc     touchReply
	scratch []uint32 // live working buffer, travels with the frame
}

func (c *visitCont) MarshalWords(w *msg.Writer) {
	w.PutU32(c.plan)
	w.PutU32(c.idx)
	w.PutU64(c.acc.v)
	w.PutU32s(c.scratch)
}

func (c *visitCont) UnmarshalWords(r *msg.Reader) error {
	c.plan = r.U32()
	c.idx = r.U32()
	c.acc.v = r.U64()
	c.scratch = r.U32s()
	return r.Err()
}

func (c *visitCont) At() gid.GID {
	for i := int(c.idx); i >= 0; i-- {
		if c.plan&(1<<i) != 0 {
			return c.env.items[i]
		}
	}
	return c.env.anchor
}

func (c *visitCont) Result() core.Result { return &c.acc }

// Visit makes the accesses to the current object: in place when the
// record has migrated there, by remote calls otherwise.
func (c *visitCont) Visit(t *core.Task, _ any, _ core.Mechanism) bool {
	e := c.env
	g := e.items[c.idx]
	n := accesses[c.idx]
	if t.IsLocal(g) {
		for k := 0; k < n; k++ {
			t.Work(touchWork)
			c.acc.v++
		}
	} else {
		for k := 0; k < n; k++ {
			var rep touchReply
			if err := t.Call(g, e.mTouch, nil, &rep); err != nil {
				panic(err)
			}
			c.acc.v += rep.v
		}
	}
	c.idx++
	return int(c.idx) == len(e.items)
}

// RPC is Visit from the requester.
func (c *visitCont) RPC(t *core.Task) bool { return c.Visit(t, nil, core.RPC) }

// env holds the chain's objects, the requester's anchor, and the
// registered procedures.
type env struct {
	items  []gid.GID
	anchor gid.GID
	mTouch core.MethodID
	cont   core.ContID
}

// run walks the chain under plan on a fresh machine.
func run(plan uint32) (result uint64, cycles sim.Time, messages uint64) {
	m := machine.New("autotune", machine.Config{Seed: 2, Scheme: core.Scheme{Mechanism: core.Migrate}}, len(accesses)+1)
	rt := m.RT
	e := &env{}
	for i := range accesses {
		e.items = append(e.items, rt.Objects.New(i+1, &item{}))
	}
	// The anchor is where the record sits until it first migrates.
	e.anchor = rt.Objects.New(0, &item{})
	e.mTouch = rt.RegisterMethod("autotune.touch", true,
		func(t *core.Task, _ any, _ *msg.Reader, reply *msg.Writer) {
			t.Work(touchWork)
			reply.PutU64(1)
		})
	e.cont = rt.RegisterWalker("autotune.visit", func() core.Walker { return &visitCont{env: e} })

	m.Eng.Spawn("client", 0, func(th *sim.Thread) {
		task := rt.NewTask(th, 0)
		start := th.Now()
		c := task.Record(e.cont).(*visitCont)
		*c = visitCont{env: e, plan: plan, scratch: make([]uint32, scratchWords)}
		task.Walk(core.Migrate, e.cont, c)
		result = c.acc.v
		cycles = th.Now() - start
	})
	return result, cycles, m.Run(&machine.Result{}).TotalMessages()
}

// advise asks the advisor, per object, whether to migrate there or call
// remotely. It returns the plan (bit i set: migrate to object i) and one
// line explaining each decision.
func advise() (plan uint32, reasons []string) {
	adv := advisor.New(core.Scheme{Mechanism: core.Migrate}.Model())
	for i, n := range accesses {
		p := advisor.SiteProfile{
			AccessesPerVisit: float64(n),
			ArgWords:         0, ReplyWords: 2,
			ContWords:   5 + scratchWords, // plan+idx+acc+len prefix+buffer
			ShortMethod: true, ChainLength: float64(len(accesses)),
		}
		choice := adv.Choose(p)
		if choice == core.Migrate {
			plan |= 1 << i
		}
		reasons = append(reasons, fmt.Sprintf("object %d: %2d accesses -> %-8v (%s)", i, n, choice, adv.Explain(p)))
	}
	return plan, reasons
}

// The two pure plans the advisor's mix is judged against.
var (
	allRPC = uint32(0)
	allMig = uint32(1<<len(accesses)) - 1
)

func main() {
	advised, reasons := advise()
	fmt.Println("advisor decisions (per object):")
	for _, r := range reasons {
		fmt.Println("  " + r)
	}
	fmt.Println()

	fmt.Printf("%-18s %8s %10s %10s\n", "plan", "result", "cycles", "messages")
	for _, p := range []struct {
		name string
		plan uint32
	}{
		{"all RPC", allRPC},
		{"all migrate", allMig},
		{"advisor mix", advised},
	} {
		res, cyc, msgs := run(p.plan)
		fmt.Printf("%-18s %8d %10d %10d\n", p.name, res, cyc, msgs)
	}
	fmt.Println()
	fmt.Println("the advisor migrates only where the access run pays for the move.")
}
