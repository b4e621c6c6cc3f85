// Package network models the interconnect of the simulated
// distributed-memory machine: message transit latency and word-level
// bandwidth accounting. Software overheads (stubs, marshaling, handler
// dispatch) are charged by the runtime layers above; the network charges
// only wire time and counts words, which is what the paper's
// bandwidth figures (Figure 3, Tables 2 and 4) measure.
package network

import (
	"fmt"

	"compmig/internal/fault"
	"compmig/internal/profile"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// HeaderWords is the per-message header size in 32-bit words: source,
// destination, kind/handler index, and payload length.
const HeaderWords = 2

// Topology computes the hop distance between two processors, and the
// minimum hop distance between two processor groups (the lookahead
// primitive of the sharded engine).
type Topology interface {
	Hops(src, dst int) uint64
	MinHops(groupA, groupB []int) uint64
	Name() string
}

// Crossbar is a constant-latency interconnect: every remote pair is one
// hop. This matches the paper's flat transit cost (17 cycles).
type Crossbar struct{}

// Hops returns 0 for local delivery and 1 otherwise.
func (Crossbar) Hops(src, dst int) uint64 {
	if src == dst {
		return 0
	}
	return 1
}

// MinHops returns the minimum Hops over pairs drawn from the two groups:
// 0 when the groups share a processor, 1 otherwise. Like Mesh.MinHops it
// panics on an empty group, for which no minimum exists.
func (c Crossbar) MinHops(groupA, groupB []int) uint64 {
	if len(groupA) == 0 || len(groupB) == 0 {
		panic("network: crossbar MinHops on an empty group")
	}
	for _, a := range groupA {
		for _, b := range groupB {
			if a == b {
				return 0
			}
		}
	}
	return 1
}

// Name identifies the topology in reports.
func (Crossbar) Name() string { return "crossbar" }

// Mesh is a 2D mesh with dimension-ordered routing distance.
type Mesh struct {
	W, H int
}

// NewMesh returns a W×H mesh topology.
func NewMesh(w, h int) Mesh {
	if w <= 0 || h <= 0 {
		panic("network: mesh dimensions must be positive")
	}
	return Mesh{W: w, H: h}
}

// Hops returns the Manhattan distance between the procs' mesh positions.
// Proc ids outside [0, W*H) have no mesh position: computing with one
// would silently return a wrong distance, so Hops panics instead.
func (m Mesh) Hops(src, dst int) uint64 {
	if n := m.W * m.H; src < 0 || src >= n || dst < 0 || dst >= n {
		panic(fmt.Sprintf("network: %s has procs [0,%d), got hop query src=%d dst=%d",
			m.Name(), n, src, dst))
	}
	sx, sy := src%m.W, src/m.W
	dx, dy := dst%m.W, dst/m.W
	abs := func(a int) int {
		if a < 0 {
			return -a
		}
		return a
	}
	return uint64(abs(sx-dx) + abs(sy-dy))
}

// MinHops returns the minimum Manhattan distance over pairs drawn from
// the two groups — the shortest wire any message between the groups can
// take, which is what bounds a shard pair's lookahead. Like Hops it
// panics on proc ids outside [0, W*H), and on an empty group, for which
// no minimum exists.
func (m Mesh) MinHops(groupA, groupB []int) uint64 {
	if len(groupA) == 0 || len(groupB) == 0 {
		panic(fmt.Sprintf("network: %s MinHops on an empty group", m.Name()))
	}
	best := ^uint64(0)
	for _, a := range groupA {
		for _, b := range groupB {
			if h := m.Hops(a, b); h < best {
				best = h
			}
		}
	}
	return best
}

// Name identifies the topology in reports.
func (m Mesh) Name() string { return fmt.Sprintf("mesh%dx%d", m.W, m.H) }

// Lookahead returns the conservative synchronization window for lane
// groups over topo: the minimum wire latency of any cross-group message,
// base + perHop * MinHops minimized over ordered group pairs. With
// fewer than two groups there is no cross-group message and no
// constraint; the result is 0 (unbounded windows).
func Lookahead(topo Topology, groups [][]int, transitBase, transitPerHop uint64) uint64 {
	if len(groups) < 2 {
		return 0
	}
	best := ^uint64(0)
	for i := range groups {
		for j := range groups {
			if i == j {
				continue
			}
			l := transitBase + transitPerHop*topo.MinHops(groups[i], groups[j])
			if l < best {
				best = l
			}
		}
	}
	return best
}

// Message is one packet in flight.
type Message struct {
	Src, Dst int
	Kind     string   // accounting label ("rpc", "migrate", "coherence", ...)
	Payload  []uint32 // wire words (header charged separately)

	// ExtraWords models payload words that are charged on the wire but
	// never materialized: protocol messages whose content the receiver
	// ignores (the cache-coherence traffic) set this instead of
	// allocating a Payload slice.
	ExtraWords uint64
}

// Words returns the total wire size of the message including header.
func (m *Message) Words() uint64 { return HeaderWords + uint64(len(m.Payload)) + m.ExtraWords }

// Network delivers messages with a latency function and counts traffic.
// It follows the machine's lanes: a send charges the source processor's
// lane collector and lands on the destination's lane engine, directly
// within a lane and through the cluster's deterministic cross-lane
// channel between lanes.
type Network struct {
	mach  *sim.Machine
	topo  Topology
	lanes []*laneNet

	// TransitBase and TransitPerHop price wire latency in cycles.
	TransitBase   uint64
	TransitPerHop uint64

	// PerWordWireCycles adds serialization delay per payload word (0 by
	// default: the paper folds size effects into marshal/copy costs).
	PerWordWireCycles uint64

	// rel is the at-most-once reliability layer, attached only when a
	// fault injector is in effect. The fault-free hot path pays one nil
	// check.
	rel *reliability
}

// laneNet is one lane's slice of the network: its engine, its collector
// and its delivery-adapter pool. Each is touched only while its lane
// executes. It is the records the network keeps on its lane's engine
// (sim.Keep): when the machine retires, Retire scrubs it, and the next
// network built on a revived lane takes it back with its pool full.
type laneNet struct {
	eng *sim.Engine
	col *stats.Collector

	// pool recycles delivery adapters so a Send costs no allocation for
	// the in-flight bookkeeping (the simulator processes millions of
	// messages per experiment).
	pool []*laneDelivery
}

// laneDelivery carries one in-flight message from Send to its arrival
// callback on the destination's lane ln. The fn field is the adapter's
// bound method value, built once when the adapter is created and reused
// for every flight afterwards.
type laneDelivery struct {
	ln     *laneNet
	m      *Message
	arrive func(*Message)
	fn     func()
}

// Retire drops the lane's engine and collector when its machine
// retires. A pooled adapter holds no message, and its ln is its own
// pool's laneNet until its next send sets it.
func (ln *laneNet) Retire() int {
	ln.eng, ln.col = nil, nil
	return len(ln.pool)
}

// run fires at arrival time: it returns the adapter to the pool of the
// lane it runs on first (the saved locals keep the flight's state), so
// arrive may itself Send and reuse this adapter immediately.
func (d *laneDelivery) run() {
	ln, m, arrive := d.ln, d.m, d.arrive
	d.m, d.arrive = nil, nil
	ln.pool = append(ln.pool, d)
	if ln.eng.Tracing() {
		ln.eng.Tracef("deliver", "%s p%d->p%d", m.Kind, m.Src, m.Dst)
	}
	arrive(m)
}

// New returns a network over topology topo for the processors of mach,
// reporting into cols, one collector per lane of mach.
func New(mach *sim.Machine, topo Topology, cols []*stats.Collector, transitBase, transitPerHop uint64) *Network {
	if len(cols) != mach.Lanes() {
		panic(fmt.Sprintf("network: %d lane collectors for %d lanes", len(cols), mach.Lanes()))
	}
	n := &Network{
		mach: mach, topo: topo, lanes: make([]*laneNet, len(cols)),
		TransitBase: transitBase, TransitPerHop: transitPerHop,
	}
	for i := range n.lanes {
		ln := sim.Keep[laneNet](mach.Lane(i))
		ln.eng, ln.col = mach.Lane(i), cols[i]
		n.lanes[i] = ln
	}
	return n
}

// Latency returns the wire latency for a message of size words from src
// to dst.
func (n *Network) Latency(src, dst int, words uint64) uint64 {
	return n.TransitBase + n.TransitPerHop*n.topo.Hops(src, dst) + n.PerWordWireCycles*words
}

// Send injects m and invokes arrive at the destination after transit
// latency. Word and message accounting happens at injection; transit
// cycles are charged to the network-transit category.
func (n *Network) Send(m *Message, arrive func(*Message)) {
	n.SendAfter(m, 0, arrive)
}

// SendAfter is Send with an additional fixed delay charged at the
// receiving end (e.g. controller handling time) before arrive runs.
// Folding the delay into the delivery event instead of scheduling a
// second hop at arrival halves the event-heap traffic of protocol-heavy
// workloads.
func (n *Network) SendAfter(m *Message, recvDelay uint64, arrive func(*Message)) {
	if n.rel != nil {
		n.rel.send(m, recvDelay, arrive, nil, 0)
		return
	}
	if profile.Enabled() {
		defer profile.NetSends.Time(1)()
	}
	srcLane := n.mach.LaneOf(m.Src)
	src := n.lanes[srcLane]
	words := m.Words()
	src.col.CountMessage(words)
	lat := n.Latency(m.Src, m.Dst, words)
	src.col.AddCycles(stats.CatNetworkTransit, lat)
	if src.eng.Tracing() {
		src.eng.Tracef("send", "%s p%d->p%d %dw", m.Kind, m.Src, m.Dst, words)
	}
	var d *laneDelivery
	if k := len(src.pool); k > 0 {
		d = src.pool[k-1]
		src.pool[k-1] = nil
		src.pool = src.pool[:k-1]
	} else {
		d = &laneDelivery{}
		d.fn = d.run
	}
	d.m, d.arrive = m, arrive
	if dstLane := n.mach.LaneOf(m.Dst); dstLane != srcLane {
		d.ln = n.lanes[dstLane]
		src.eng.CrossSend(lat+recvDelay, m.Dst, d.fn)
		return
	}
	d.ln = src
	src.eng.ScheduleOn(lat+recvDelay, m.Dst, d.fn)
}

// SendGuarded is Send for callers that can recover from message loss:
// when a fault injector is attached and the reliability layer exhausts
// its retransmission budget, onGiveUp receives tok and the typed error
// instead of the network panicking. tok names what the message was
// sent for, so one callback bound once serves every send. Without an
// injector it is exactly Send.
func (n *Network) SendGuarded(m *Message, arrive func(*Message), onGiveUp func(tok uint64, err *fault.GiveUpError), tok uint64) {
	if n.rel != nil {
		n.rel.send(m, 0, arrive, onGiveUp, tok)
		return
	}
	n.SendAfter(m, 0, arrive)
}

// AttachFaults places the network under a fault plan: every message now
// travels through the at-most-once reliability layer (sequence framing,
// acks, retransmission) and the injector decides each transmission's
// fate. Callers gate on Spec.Enabled() — attaching an injector changes
// wire charges (framing and acks), so the fault-free byte-identity
// contract is "no injector attached". The layer's sequence numbers and
// records are machine-wide, so it runs only on a one-lane network.
func (n *Network) AttachFaults(inj *fault.Injector) {
	if inj == nil {
		panic("network: AttachFaults(nil)")
	}
	if len(n.lanes) != 1 {
		panic(fmt.Sprintf("network: cannot attach a fault injector to a %d-lane network", len(n.lanes)))
	}
	eng := n.lanes[0].eng
	n.rel = &reliability{n: n, eng: eng, col: n.lanes[0].col, inj: inj, pool: sim.Keep[relPool](eng)}
}

// FaultInjector returns the attached injector, or nil on a fault-free
// network.
func (n *Network) FaultInjector() *fault.Injector {
	if n.rel == nil {
		return nil
	}
	return n.rel.inj
}
