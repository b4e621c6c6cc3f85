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
	"compmig/internal/store"
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
	rt     *core.Runtime
	shm    *mem.System // nil unless the scheme is SharedMem or a policy run
	scheme core.Scheme
	pol    *policy.Site // per-traversal mechanism selector (nil = static scheme)

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

	wal *store.Store // nil unless durability is enabled
}

// Build lays a width-wide bitonic counting network out one balancer per
// processor, starting at processor 0 (the paper's 24-processor layout for
// width 8). Counters are co-located with the final-stage balancer of
// their wire.
func Build(rt *core.Runtime, shm *mem.System, scheme core.Scheme, width int) *Network {
	layout := Bitonic(width)
	n := &Network{
		rt: rt, shm: shm, scheme: scheme,
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

// Stages returns the network depth.
func (n *Network) Stages() int { return len(n.stages) }

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
			n.logBalancer(t, b)
			reply.PutU32(uint32(out))
		})
	n.mNext = n.rt.RegisterMethod("countnet.next", true,
		func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
			c := self.(*counter)
			t.Work(n.CounterWork)
			v := c.take()
			n.logCounter(t, c)
			reply.PutU64(v)
		})
	n.cTravers = n.rt.RegisterCont("countnet.traverse",
		func() core.Continuation { return &traverseCont{net: n} })
}

// wireReply carries a balancer's routing decision back to an RPC caller.
type wireReply struct{ wire uint32 }

func (r *wireReply) MarshalWords(w *msg.Writer)          { w.PutU32(r.wire) }
func (r *wireReply) UnmarshalWords(rd *msg.Reader) error { r.wire = rd.U32(); return rd.Err() }

// valueReply carries the final counter value.
type valueReply struct{ value uint64 }

func (r *valueReply) MarshalWords(w *msg.Writer)          { w.PutU64(r.value) }
func (r *valueReply) UnmarshalWords(rd *msg.Reader) error { r.value = rd.U64(); return rd.Err() }

// traverseCont is the continuation for a migrating traversal: the live
// variables are just the current stage and wire. Its wire stubs are
// generated by cmd/contgen (app_gen.go) — the paper's §3 compiler role.
//
//compmig:record
type traverseCont struct {
	net   *Network
	stage uint32
	wire  uint32
}

func (c *traverseCont) Run(t *core.Task) {
	n := c.net
	for int(c.stage) < len(n.stages) {
		bi := n.balForWire[c.stage][c.wire]
		g := n.balGID[c.stage][bi]
		if !t.IsLocal(g) {
			t.Migrate(g, n.cTravers, c)
			return
		}
		b := t.State(g).(*balancer)
		t.Work(n.BalancerWork)
		c.wire = uint32(b.route())
		n.logBalancer(t, b)
		c.stage++
	}
	// The counter is co-located with the final balancer, so this is local.
	g := n.counterGID[c.wire]
	if !t.IsLocal(g) {
		t.Migrate(g, n.cTravers, c)
		return
	}
	ctr := t.State(g).(*counter)
	t.Work(n.CounterWork)
	v := ctr.take()
	n.logCounter(t, ctr)
	t.Return(&valueReply{value: v})
}

// AttachPolicy registers the traversal call site with a policy engine
// and routes every subsequent Traverse through its decisions. The site's
// static profile carries what the compiler would know: record sizes and
// the short-method flag, plus network-shape priors for run and chain
// length (each balancer is visited once; a traversal crosses stages+1
// objects).
func (n *Network) AttachPolicy(e *policy.Engine) {
	n.pol = e.NewSite("countnet.traverse", advisor.SiteProfile{
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
	mech := n.scheme.Mechanism
	if n.pol != nil {
		op := t.Choose(n.pol, n.balGID[0][n.balForWire[0][wire]])
		defer op.Done(t)
		mech = op.Mech
	}
	return n.traverseWith(t, wire, mech)
}

func (n *Network) traverseWith(t *core.Task, wire int, mech core.Mechanism) uint64 {
	switch mech {
	case core.Migrate:
		var rep valueReply
		if err := t.Do(&traverseCont{net: n, wire: uint32(wire)}, &rep); err != nil {
			panic("countnet: traverse failed: " + err.Error())
		}
		return rep.value
	case core.RPC:
		w := uint32(wire)
		for s := range n.stages {
			bi := n.balForWire[s][w]
			g := n.balGID[s][bi]
			n.peek(t, g)
			var rep wireReply
			if err := t.Call(g, n.mToggle, nil, &rep); err != nil {
				panic("countnet: toggle failed: " + err.Error())
			}
			w = rep.wire
		}
		n.peek(t, n.counterGID[w])
		var rep valueReply
		if err := t.Call(n.counterGID[w], n.mNext, nil, &rep); err != nil {
			panic("countnet: counter failed: " + err.Error())
		}
		return rep.value
	case core.SharedMem:
		w := wire
		th, proc := t.Thread(), t.Proc()
		for s := range n.stages {
			bi := n.balForWire[s][w]
			b := n.rt.Objects.State(n.balGID[s][bi]).(*balancer)
			n.shm.RMW(th, proc, b.addr)
			t.Work(n.BalancerWork)
			w = b.route()
			n.logBalancer(t, b)
		}
		c := n.rt.Objects.State(n.counterGID[w]).(*counter)
		n.shm.RMW(th, proc, c.addr)
		t.Work(n.CounterWork)
		v := c.take()
		n.logCounter(t, c)
		return v
	case core.ObjMigrate:
		// Emerald-style whole-object migration — the comparison the paper
		// wanted to run (§4). Every balancer is pulled to the requester
		// before being toggled; write-sharing makes the objects ping-pong.
		w := uint32(wire)
		for s := range n.stages {
			bi := n.balForWire[s][w]
			g := n.balGID[s][bi]
			// Route immediately after the pull, before any yield, so the
			// access is atomic even if the object is pulled away next.
			b := n.pullAndPin(t, g).(*balancer)
			w = uint32(b.route())
			n.logBalancer(t, b)
			t.Work(n.BalancerWork)
		}
		g := n.counterGID[w]
		ctr := n.pullAndPin(t, g).(*counter)
		v := ctr.take()
		n.logCounter(t, ctr)
		t.Work(n.CounterWork)
		return v
	default:
		panic("countnet: unknown mechanism")
	}
}

// pullAndPin pulls an object until it is local and returns its state.
// The caller must perform its atomic host-level access immediately (the
// routing/toggle happens with no intervening yield, so the interleaving
// is equivalent to holding the object for the access).
func (n *Network) pullAndPin(t *core.Task, g gid.GID) any {
	for !t.IsLocal(g) {
		if err := t.PullObject(g, balancerStateWords); err != nil {
			panic("countnet: object pull failed: " + err.Error())
		}
	}
	return n.rt.Objects.State(g)
}

// balancerStateWords is the wire size of a migrated balancer or counter
// object: state plus wiring descriptors.
const balancerStateWords = 8

// peek performs the short record-read access preceding an RPC update.
func (n *Network) peek(t *core.Task, g gid.GID) {
	var rep wireReply
	if err := t.Call(g, n.mPeek, nil, &rep); err != nil {
		panic("countnet: peek failed: " + err.Error())
	}
}

// Visits returns total tokens routed by balancer (stage, index).
func (n *Network) Visits(stage, index int) uint64 {
	return n.rt.Objects.State(n.balGID[stage][index]).(*balancer).visits
}
