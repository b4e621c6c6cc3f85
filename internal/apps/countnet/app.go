//go:generate go run compmig/cmd/contgen -in app.go

package countnet

import (
	"fmt"

	"compmig/internal/advisor"
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/mem"
	"compmig/internal/msg"
	"compmig/internal/policy"
)

// balancer is the private state of one balancer object: a two-by-two
// switch that alternately routes arriving tokens to its two output wires.
type balancer struct {
	spec   BalancerSpec
	toggle bool
	visits uint64
	addr   mem.Addr // toggle word, under shared memory
	g      gid.GID  // set at allocation, so a handler holding only the state pointer can name it
}

// route passes one token through and returns its output wire. The
// read-and-flip is atomic host code, so concurrent activations alternate
// correctly regardless of arrival interleaving.
func (b *balancer) route() int {
	b.visits++
	out := b.spec.A
	if b.toggle {
		out = b.spec.B
	}
	b.toggle = !b.toggle
	return out
}

// counter is the per-output-wire value dispenser: wire i hands out values
// i, i+width, i+2·width, ...
type counter struct {
	next  uint64
	width uint64
	addr  mem.Addr
	g     gid.GID
}

func (c *counter) take() uint64 {
	v := c.next
	c.next += c.width
	return v
}

// Network is a distributed counting network instance bound to a runtime.
type Network struct {
	rt   *core.Runtime
	shm  *mem.System // nil unless the scheme is SharedMem or a policy run
	site core.Site   // the traversal call site

	width        int
	layout       *Layout
	stages       []Stage
	balGID       [][]gid.GID // [stage][index]
	balForWire   [][]int     // [stage][wire] -> index into stage
	counterGID   []gid.GID   // [physical exit wire]
	BalancerWork uint64      // user-code cycles per balancer visit
	CounterWork  uint64      // user-code cycles to take a value

	// PeekWork prices the short record-read access that precedes each
	// RPC operation on a balancer or counter (the shared-memory-style
	// program reads the record, then updates it; under RPC every access
	// is a call — the per-access costing of §2.5).
	PeekWork uint64

	mPeek    core.MethodID
	mToggle  core.MethodID
	mNext    core.MethodID
	cTravers core.ContID
}

// Build lays a width-wide bitonic counting network out one balancer per
// processor, starting at processor 0 (the paper's 24-processor layout for
// width 8). Counters are co-located with the final-stage balancer of
// their wire.
func Build(rt *core.Runtime, shm *mem.System, scheme core.Scheme, width int) *Network {
	layout := Bitonic(width)
	n := &Network{
		rt: rt, shm: shm, site: core.Site{Mech: scheme.Mechanism},
		width: width, layout: layout, stages: layout.Stages,
		BalancerWork: 150, CounterWork: 30, PeekWork: 20,
	}
	if scheme.Mechanism == core.SharedMem && shm == nil {
		panic("countnet: SharedMem scheme needs a mem.System")
	}

	proc := 0
	for _, st := range n.stages {
		gids := make([]gid.GID, len(st))
		wireMap := make([]int, width)
		for i := range wireMap {
			wireMap[i] = -1
		}
		for bi, spec := range st {
			b := &balancer{spec: spec}
			if shm != nil {
				b.addr = shm.Alloc(proc, 8)
			}
			gids[bi] = rt.Objects.New(proc, b)
			b.g = gids[bi]
			wireMap[spec.A] = bi
			wireMap[spec.B] = bi
			proc++
		}
		n.balGID = append(n.balGID, gids)
		n.balForWire = append(n.balForWire, wireMap)
	}

	// Counters live with the last-stage balancer of their exit wire; the
	// counter on physical wire OutWire[r] dispenses rank r's values.
	last := len(n.stages) - 1
	n.counterGID = make([]gid.GID, width)
	for r := 0; r < width; r++ {
		w := layout.OutWire[r]
		bi := n.balForWire[last][w]
		home := n.balGID[last][bi].Home()
		c := &counter{next: uint64(r), width: uint64(width)}
		if shm != nil {
			c.addr = shm.Alloc(home, 8)
		}
		n.counterGID[w] = rt.Objects.New(home, c)
		c.g = n.counterGID[w]
	}

	n.registerHandlers()
	return n
}

// NumBalancers returns the number of balancer processors the layout uses.
func (n *Network) NumBalancers() int {
	t := 0
	for _, st := range n.stages {
		t += len(st)
	}
	return t
}

func (n *Network) registerHandlers() {
	n.mPeek = n.rt.RegisterMethod("countnet.peek", true,
		func(t *core.Task, _ any, _ *msg.Reader, reply *msg.Writer) {
			t.Work(n.PeekWork)
			reply.PutU32(0)
		})
	// Balancer toggle is one of Prelude's optimized short methods: no
	// handler thread is created under RPC (§4.4).
	n.mToggle = n.rt.RegisterMethod("countnet.toggle", true,
		func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
			b := self.(*balancer)
			t.Work(n.BalancerWork)
			out := b.route()
			t.Log(0, b)
			reply.PutU32(uint32(out))
		})
	n.mNext = n.rt.RegisterMethod("countnet.next", true,
		func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
			c := self.(*counter)
			t.Work(n.CounterWork)
			v := c.take()
			t.Log(0, c)
			reply.PutU64(v)
		})
	n.cTravers = n.rt.RegisterWalker("countnet.traverse",
		func() core.Walker { return &traverseCont{net: n} })
}

// wireReply carries a balancer's routing decision back to an RPC caller.
//
//compmig:record
type wireReply struct{ wire uint32 }

// valueReply carries the final counter value.
//
//compmig:record
type valueReply struct{ value uint64 }

// traverseCont is one token's traversal, for every mechanism: the live
// variables are just the current stage and wire, and the drawn value is
// its result. Its wire stubs are generated by cmd/contgen (app_gen.go) —
// the paper's §3 compiler role.
//
//compmig:record
type traverseCont struct {
	net   *Network
	stage uint32
	wire  uint32
	res   valueReply `compmig:"local"`
	rep   wireReply  `compmig:"local"` // an RPC visit's reply, decoded in place
}

// At is the balancer the token's wire enters at its stage, or, past the
// last stage, the wire's counter (co-located with the final balancer).
func (c *traverseCont) At() gid.GID {
	n := c.net
	if int(c.stage) < len(n.stages) {
		return n.balGID[c.stage][n.balForWire[c.stage][c.wire]]
	}
	return n.counterGID[c.wire]
}

// Visit routes the token through a balancer, or draws its value from the
// counter and completes the traversal.
func (c *traverseCont) Visit(t *core.Task, state any, mech core.Mechanism) bool {
	n := c.net
	if b, ok := state.(*balancer); ok {
		n.access(t, mech, b.addr, n.BalancerWork, func() {
			c.wire = uint32(b.route())
			t.Log(0, b)
		})
		c.stage++
		return false
	}
	ctr := state.(*counter)
	n.access(t, mech, ctr.addr, n.CounterWork, func() {
		c.res.value = ctr.take()
		t.Log(0, ctr)
	})
	return true
}

// access performs one balancer or counter access: step (route or draw,
// then log) priced by work cycles. Under shared memory it starts with an
// atomic read-modify-write of the object's word. Object migration steps
// before the work, right after the pull and before any yield, so the
// access is atomic even if the object is pulled away next; the other
// mechanisms do the work first.
func (n *Network) access(t *core.Task, mech core.Mechanism, addr mem.Addr, work uint64, step func()) {
	if mech == core.SharedMem {
		n.shm.RMW(t.Thread(), t.Proc(), addr)
	}
	if mech == core.ObjMigrate {
		step()
		t.Work(work)
		return
	}
	t.Work(work)
	step()
}

// RPC visits a balancer or the counter from the requester: a record-read
// peek, then the toggle or draw call.
func (c *traverseCont) RPC(t *core.Task) bool {
	n, g := c.net, c.At()
	if err := t.Call(g, n.mPeek, nil, &c.rep); err != nil {
		panic("countnet: peek failed: " + err.Error())
	}
	if int(c.stage) == len(n.stages) {
		if err := t.Call(g, n.mNext, nil, &c.res); err != nil {
			panic("countnet: counter failed: " + err.Error())
		}
		return true
	}
	if err := t.Call(g, n.mToggle, nil, &c.rep); err != nil {
		panic("countnet: toggle failed: " + err.Error())
	}
	c.wire = c.rep.wire
	c.stage++
	return false
}

func (c *traverseCont) Result() core.Result { return &c.res }

// AttachPolicy registers the traversal call site with a policy engine
// and routes every subsequent Traverse through its decisions. The site's
// static profile carries what the compiler would know: record sizes and
// the short-method flag, plus network-shape priors for run and chain
// length (each balancer is visited once; a traversal crosses stages+1
// objects).
func (n *Network) AttachPolicy(e *policy.Engine) {
	n.site.Chooser = e.NewSite("countnet.traverse", advisor.SiteProfile{
		AccessesPerVisit: 1,
		ReplyWords:       1,
		ContWords:        2, // stage + wire
		ShortMethod:      true,
		ChainLength:      float64(len(n.stages) + 1),
	})
}

// Traverse pushes one token in on the given input wire and returns the
// counter value it drew. The mechanism is the network's static scheme,
// or the attached policy's per-operation decision.
func (n *Network) Traverse(t *core.Task, wire int) uint64 {
	if wire < 0 || wire >= n.width {
		panic(fmt.Sprintf("countnet: wire %d out of range", wire))
	}
	op := t.Choose(&n.site, n.balGID[0][n.balForWire[0][wire]])
	defer op.Done(t)
	c := t.Record(n.cTravers).(*traverseCont)
	*c = traverseCont{net: n, wire: uint32(wire)}
	t.Walk(op.Mech, n.cTravers, c)
	return c.res.value
}

// StateWords is the wire size of a migrated balancer or counter: state
// plus wiring descriptors.
func (b *balancer) StateWords() uint64 { return 8 }
func (c *counter) StateWords() uint64  { return 8 }

// Visits returns total tokens routed by balancer (stage, index).
func (n *Network) Visits(stage, index int) uint64 {
	return n.rt.Objects.State(n.balGID[stage][index]).(*balancer).visits
}
