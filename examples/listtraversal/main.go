// Listtraversal: the paper's motivating scenario — a thread traverses a
// distributed data structure, touching a series of objects that live on
// different processors. We sum a distributed linked list under all three
// remote-access mechanisms and print the cost of each. The traversal is
// written once, as an operation record (core.Walker), and the mechanism
// is only the argument to Task.Walk.
//
// Run with: go run ./examples/listtraversal
package main

import (
	"fmt"

	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/machine"
	"compmig/internal/mem"
	"compmig/internal/msg"
	"compmig/internal/sim"
)

const (
	listLen  = 32
	nprocs   = 8
	nodeWork = 40 // user-code cycles to process one list node
)

// listNode is one element of the distributed list.
type listNode struct {
	value uint64
	next  gid.GID
	addr  mem.Addr // shared-memory image (SM runs only)
}

// nodeReply carries (value, next) to an RPC caller.
type nodeReply struct {
	value uint64
	next  gid.GID
}

func (r *nodeReply) MarshalWords(w *msg.Writer) {
	w.PutU64(r.value)
	w.PutU64(uint64(r.next))
}

func (r *nodeReply) UnmarshalWords(rd *msg.Reader) error {
	r.value = rd.U64()
	r.next = gid.GID(rd.U64())
	return rd.Err()
}

// sumReply is the traversal's final result.
type sumReply struct{ sum uint64 }

func (r *sumReply) MarshalWords(w *msg.Writer)          { w.PutU64(r.sum) }
func (r *sumReply) UnmarshalWords(rd *msg.Reader) error { r.sum = rd.U64(); return rd.Err() }

// sumCont is the traversal, written once for every mechanism: its live
// variables are the running sum and the current node.
type sumCont struct {
	l   *list
	cur gid.GID
	sum uint64
	res sumReply // the result, host-side
}

// list is the traversal's environment: the shared-memory substrate and
// the RPC read method.
type list struct {
	mem   *mem.System
	mRead core.MethodID
}

func (c *sumCont) MarshalWords(w *msg.Writer) {
	w.PutU64(uint64(c.cur))
	w.PutU64(c.sum)
}

func (c *sumCont) UnmarshalWords(r *msg.Reader) error {
	c.cur = gid.GID(r.U64())
	c.sum = r.U64()
	return r.Err()
}

func (c *sumCont) At() gid.GID         { return c.cur }
func (c *sumCont) Result() core.Result { return &c.res }

// Visit adds one node; under shared memory the node's line is read
// through the cache first.
func (c *sumCont) Visit(t *core.Task, state any, mech core.Mechanism) bool {
	nd := state.(*listNode)
	if mech == core.SharedMem {
		c.l.mem.Read(t.Thread(), t.Proc(), nd.addr, 16)
	}
	t.Work(nodeWork)
	c.sum += nd.value
	c.cur = nd.next
	c.res.sum = c.sum
	return c.cur.IsNil()
}

// RPC reads one node with a remote call.
func (c *sumCont) RPC(t *core.Task) bool {
	var rep nodeReply
	if err := t.Call(c.cur, c.l.mRead, nil, &rep); err != nil {
		panic(err)
	}
	c.sum += rep.value
	c.cur = rep.next
	c.res.sum = c.sum
	return c.cur.IsNil()
}

// traverse sums the list under scheme on a fresh machine.
func traverse(scheme core.Scheme) (sum uint64, cycles sim.Time, messages, words uint64) {
	// One processor more than the list spans, for the traversing thread.
	m := machine.New("listtraversal", machine.Config{Seed: 7, Scheme: scheme}, nprocs+1)
	rt := m.RT

	// Lay the list out round-robin across the processors — worst-case
	// locality, like a structure built by many different threads.
	next := gid.Nil
	for i := listLen - 1; i >= 0; i-- {
		nd := &listNode{value: uint64(i + 1), next: next}
		home := i % nprocs
		if m.Mem != nil {
			nd.addr = m.Mem.Alloc(home, 16)
		}
		next = rt.Objects.New(home, nd)
	}
	head := next

	l := &list{mem: m.Mem}
	l.mRead = rt.RegisterMethod("list.read", true,
		func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
			nd := self.(*listNode)
			t.Work(nodeWork)
			(&nodeReply{value: nd.value, next: nd.next}).MarshalWords(reply)
		})
	contID := core.RegisterWalker(rt, "list.sum", func(c *sumCont) { c.l = l })

	m.Eng.Spawn("walker", 0, func(th *sim.Thread) {
		task := rt.NewTask(th, nprocs) // thread on its own processor
		start := th.Now()
		c := task.Record(contID).(*sumCont)
		*c = sumCont{l: l, cur: head}
		task.Walk(scheme.Mechanism, contID, c)
		sum = c.res.sum
		cycles = th.Now() - start
	})
	col := m.Run(&machine.Result{})
	return sum, cycles, col.TotalMessages(), col.WordsSent
}

// schemes lists the mechanisms compared, in printing order.
var schemes = []core.Scheme{
	{Mechanism: core.RPC},
	{Mechanism: core.SharedMem},
	{Mechanism: core.Migrate},
	{Mechanism: core.Migrate, HWMessaging: true},
}

func main() {
	fmt.Printf("summing a %d-node list scattered over %d processors\n\n", listLen, nprocs)
	fmt.Printf("%-24s %10s %10s %10s %8s\n", "mechanism", "sum", "cycles", "messages", "words")
	for _, s := range schemes {
		sum, cyc, msgs, words := traverse(s)
		fmt.Printf("%-24s %10d %10d %10d %8d\n", s.Name(), sum, cyc, msgs, words)
	}
	fmt.Println()
	fmt.Println("computation migration sends the fewest messages: one per hop and a")
	fmt.Println("single short-circuited return, instead of a round trip (RPC) or a line")
	fmt.Println("fetch (shared memory) per node. That beats RPC in cycles, but shared")
	fmt.Println("memory's hardware line fetches still finish the chase first: every hop")
	fmt.Println("pays the software runtime's per-message overhead (Table 5).")
}
