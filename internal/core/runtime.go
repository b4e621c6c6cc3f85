// Package core is the paper's contribution: a Prelude-like object-based
// runtime for a distributed-memory machine offering RPC, data migration
// via cache-coherent shared memory, and computation migration of
// activation frames — plus, as an extension, Emerald-style whole-object
// migration with forwarding.
//
// The programming model mirrors what the Prelude compiler emits. An
// operation that may migrate is written once, as a Walker: a
// continuation record whose fields are exactly the live variables at the
// potential migration point and whose Visit is the continuation of the
// procedure from that point (§3.2: "The continuation procedure's body is
// the continuation of the migrating procedure at the point of migration;
// its arguments are the live variables at that point"). Go cannot
// serialize closures, so these records are explicit structs with
// word-level marshalers — the same artifacts the Prelude compiler
// generates from an annotation — and Task.Walk runs one under any
// mechanism.
package core

import (
	"fmt"

	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/network"
	"compmig/internal/object"
	"compmig/internal/sim"
	"compmig/internal/stats"
	"compmig/internal/store"
)

// Mechanism selects how remote accesses are performed.
type Mechanism int

const (
	// RPC performs each access remotely via a call/reply message pair.
	RPC Mechanism = iota
	// Migrate ships the current activation to the data (computation
	// migration).
	Migrate
	// SharedMem leaves the thread in place and accesses data through
	// cache-coherent shared memory (data migration).
	SharedMem
	// ObjMigrate moves whole objects to the accessing processor without
	// replication, as in Emerald — the comparison §4 wanted to run.
	ObjMigrate
)

// String names the mechanism as in the paper's tables.
func (m Mechanism) String() string {
	switch m {
	case RPC:
		return "RPC"
	case Migrate:
		return "CM"
	case SharedMem:
		return "SM"
	case ObjMigrate:
		return "OM"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Scheme is one column of the paper's tables: a mechanism plus optional
// hardware support and software replication.
type Scheme struct {
	Mechanism   Mechanism
	HWMessaging bool // register-mapped network interface estimate [HJ92]
	HWTranslate bool // hardware GID translation estimate [DCC+87]
	Replication bool // software replication of hot objects [WW90]
}

// Name renders the scheme label used in the paper ("CP w/repl. & HW").
func (s Scheme) Name() string {
	n := s.Mechanism.String()
	if s.Mechanism == Migrate {
		n = "CP" // the paper's tables abbreviate computation migration as CP
	}
	switch {
	case s.Replication && s.HWMessaging:
		return n + " w/repl. & HW"
	case s.Replication:
		return n + " w/repl."
	case s.HWMessaging:
		return n + " w/HW"
	default:
		return n
	}
}

// Model returns the cost model implied by the scheme's hardware flags.
func (s Scheme) Model() cost.Model {
	m := cost.Software()
	if s.HWMessaging {
		m = m.WithHWMessaging()
	}
	if s.HWTranslate || s.HWMessaging {
		// The paper's "w/HW" rows bundle both estimates.
		m = m.WithHWTranslation()
	}
	return m
}

// AccessObserver receives host-side notifications about remote accesses
// as the runtime dispatches them. Implementations must be simulation-
// inert: no events, no simulated cycles, no draws from the engine's PRNG
// — an observed run must stay byte-identical to an unobserved one. The
// origin argument is always the processor where the operation's reply
// linkage lives (the processor that started the operation), not the
// processor the hook happens to execute on.
type AccessObserver interface {
	// Access reports one remote access to object g: an RPC request/reply
	// pair, or an Emerald-style whole-object move of g to origin.
	Access(origin int, g gid.GID)
	// MigrateHop reports one computation-migration hop toward object g
	// carrying a continuation of contWords payload words.
	MigrateHop(origin int, g gid.GID, contWords int)
}

// MethodID names a registered instance method.
type MethodID uint32

// Handler is an instance-method body. It executes at the object's home
// processor with the object's private state; args arrive through the
// word-level reader and results leave through the writer.
type Handler func(t *Task, self any, args *msg.Reader, reply *msg.Writer)

type methodEntry struct {
	name    string
	thread  string // handler thread name, built once at registration
	short   bool   // active-message fast path: no handler thread is created
	handler Handler
}

// ContID names a registered walker type: the word a migrating record
// is reconstructed by on arrival.
type ContID uint32

// Runtime wires the simulated machine, network, cost model, and object
// space into the Prelude-like runtime system.
type Runtime struct {
	Eng     *sim.Engine // the machine's lane 0
	Mach    *sim.Machine
	Net     *network.Network
	Model   cost.Model
	Objects *object.Space

	methods  []methodEntry
	methodID map[string]MethodID
	conts    []walkerType // by ContID

	// locHints[p] caches processor p's last known locations of objects
	// that have migrated away from their birth home.
	locHints []map[gid.GID]int

	// pins holds per-object pin deadlines: a freshly arrived object cannot
	// be fetched away again until its pin expires, so its new holder is
	// guaranteed to get its access in (Emerald-style invocation pinning).
	// An object still travelling to its new home is pinned there until
	// it arrives (pinInFlight).
	pins map[gid.GID]sim.Time
	// PinCycles is the pin window applied after each object arrives.
	PinCycles sim.Time

	// Obs, when non-nil, is notified of every remote access the runtime
	// dispatches (see AccessObserver). It must be simulation-inert.
	Obs AccessObserver

	// WAL, set on a durable run, receives the records Task.Log writes.
	WAL *store.Store

	// lanes holds each machine lane's private slice of runtime state
	// (see lane.go). The object space, method and walker tables and
	// location hints stay shared: the tables are immutable after setup
	// and each processor's hints are touched only by its own stream.
	lanes []*laneState

	// The message-path delivery callbacks and the give-up callback,
	// bound once so a send allocates no method value or closure. The
	// object-migration pair is bound at the runtime's first pull, so a
	// run that never pulls an object does not allocate it.
	onRPC, onMigrate, onReply func(*network.Message)
	onFetch, onObject         func(*network.Message)
	onGiveUp                  func(tok uint64, err *fault.GiveUpError)
}

// New creates a runtime over an existing machine and network, charging
// into cols, one collector per lane of mach.
func New(mach *sim.Machine, net *network.Network, cols []*stats.Collector, model cost.Model) *Runtime {
	if len(cols) != mach.Lanes() {
		panic(fmt.Sprintf("core: %d lane collectors for %d lanes", len(cols), mach.Lanes()))
	}
	rt := &Runtime{
		Eng: mach.Lane(0), Mach: mach, Net: net, Model: model,
		Objects:   object.NewSpace(mach.N()),
		methodID:  make(map[string]MethodID),
		locHints:  make([]map[gid.GID]int, mach.N()),
		pins:      make(map[gid.GID]sim.Time),
		PinCycles: 200,
		lanes:     make([]*laneState, len(cols)),
	}
	for i, col := range cols {
		ls := sim.Keep[laneState](mach.Lane(i))
		ls.rt, ls.col = rt, col
		rt.lanes[i] = ls
	}
	rt.onRPC, rt.onMigrate, rt.onReply = rt.deliverRPC, rt.deliverMigrate, rt.deliverReply
	rt.onGiveUp = rt.failReply
	return rt
}

// RegisterMethod installs an instance method under a unique name. Short
// methods use Prelude's active-message fast path: the handler runs in the
// message dispatch without creating a thread (§4.3), so it must not block.
func (rt *Runtime) RegisterMethod(name string, short bool, h Handler) MethodID {
	if _, dup := rt.methodID[name]; dup {
		panic("core: duplicate method " + name)
	}
	id := MethodID(len(rt.methods))
	rt.methods = append(rt.methods, methodEntry{name: name, thread: "handler:" + name, short: short, handler: h})
	rt.methodID[name] = id
	return id
}

// replySlot is one entry of a lane's reply table: the rendezvous
// between an operation's waiting caller and the reply words (or the
// recovery error) that settle it. Slots are pooled per lane. A slot is
// recycled by wait, once its waiter has read the outcome — not at
// completion, because other events at the completion cycle run before
// the waiter wakes.
type replySlot struct {
	ls   *laneState
	gen  uint32 // the lane's issue number, so a stale give-up can tell
	done bool
	// words are the reply's result words, held in the wire message m
	// (nil when they are not pooled), which the waiter releases once it
	// has decoded them.
	words []uint32
	m     *network.Message
	err   error
	// waiter is the operation's caller while it is parked on the slot:
	// only the thread that issued the slot waits on it.
	waiter *sim.Thread
}

// newReply allocates a reply slot in processor proc's lane (the
// processor the operation's reply will be delivered to). IDs are
// recycled through a free list so the live range stays small enough to
// pack into wire words together with the processor number — like real
// systems' bounded reply-slot tables.
func (rt *Runtime) newReply(proc int) (uint32, *replySlot) {
	ls := rt.laneAt(proc)
	s := pop(&ls.slots)
	if s == nil {
		s = &replySlot{ls: ls}
	}
	ls.issues++
	s.gen = ls.issues
	var id uint32
	if n := len(ls.freeIDs); n > 0 {
		id = ls.freeIDs[n-1]
		ls.freeIDs = ls.freeIDs[:n-1]
		ls.replies[id-1] = s
	} else {
		ls.replies = append(ls.replies, s)
		id = uint32(len(ls.replies))
	}
	return id, s
}

// completeReply settles reply slot id of processor proc's lane with the
// result words, held in wire message m (nil when they are not pooled).
// The id returns to the free list at once, with or without a fault
// injector: a duplicate of the reply is suppressed by the reliability
// layer, and only ids that failReply settled can still be named by a
// late reply.
func (rt *Runtime) completeReply(proc int, id uint32, words []uint32, m *network.Message) {
	ls := rt.laneAt(proc)
	s := ls.replies[id-1]
	if s == nil {
		if inj := rt.Net.FaultInjector(); inj != nil {
			// Under faults a reply can outlive its slot: the request's
			// sender gave up (every ack lost) but the request did land and
			// the handler answered anyway.
			inj.Counters.LateReplies++
			return
		}
		panic(fmt.Sprintf("core: reply id %d unknown or already completed", id))
	}
	ls.replies[id-1] = nil
	ls.freeIDs = append(ls.freeIDs, id)
	s.settle(words, m, nil)
}

// failReply settles a reply slot with an error (the reliability layer
// gave up on a message the slot was waiting on). tok is the guard token
// the message was sent with, naming the slot's processor, id and issue:
// a slot that has settled since — a late delivery may have won the race
// — or been recycled and reissued is left alone. The failed id is
// retired, never reissued, because a late reply may still name it.
func (rt *Runtime) failReply(tok uint64, err *fault.GiveUpError) {
	proc, id := unpackLinkage(uint32(tok >> 32))
	ls := rt.laneAt(proc)
	s := ls.replies[id-1]
	if s == nil || s.gen != uint32(tok) {
		return
	}
	ls.replies[id-1] = nil
	s.settle(nil, nil, err)
}

// guard returns the token a message owed to reply slot id of processor
// proc is sent with, for rt.onGiveUp: the packed linkage in the high
// word, the issue of the slot live under id now in the low word (0 when
// none is), so a give-up that fires after the slot completed is
// ignored. A fault-free network never gives up, so it returns 0 there.
func (rt *Runtime) guard(proc int, id uint32) uint64 {
	if rt.Net.FaultInjector() == nil {
		return 0
	}
	var gen uint32
	if s := rt.laneAt(proc).replies[id-1]; s != nil {
		gen = s.gen
	}
	return uint64(packLinkage(proc, id))<<32 | uint64(gen)
}

// release returns wire message m, whose payload its receiver has
// consumed, to the pool of the receiving processor's lane. The network
// hands each message to its receiver exactly once and keeps no
// reference to it after, with or without a fault injector.
func (rt *Runtime) release(m *network.Message) {
	ls := rt.laneAt(m.Dst)
	ls.msgs = append(ls.msgs, m)
}

func (s *replySlot) settle(words []uint32, m *network.Message, err error) {
	s.done, s.words, s.m, s.err = true, words, m, err
	if th := s.waiter; th != nil {
		s.waiter = nil
		th.Unpark()
	}
}

// wait blocks th until the slot is settled, recycles the slot, and
// splits the outcome: reply words and the message holding them (for the
// waiter to release once decoded) on success, the recovery error when
// the runtime gave up on a lost message.
func (s *replySlot) wait(th *sim.Thread) ([]uint32, *network.Message, error) {
	if !s.done {
		s.waiter = th
		th.Park("reply")
	}
	if !s.done {
		panic("core: woke from a reply wait before the reply")
	}
	words, m, err := s.words, s.m, s.err
	s.recycle()
	return words, m, err
}

func (s *replySlot) recycle() {
	s.done, s.words, s.m, s.err = false, nil, nil, nil
	s.ls.slots = append(s.ls.slots, s)
}

// packLinkage squeezes a reply handle into one wire word: 12 bits of
// processor, 20 bits of recycled reply id.
func packLinkage(proc int, id uint32) uint32 {
	if proc < 0 || proc >= 1<<12 {
		panic(fmt.Sprintf("core: processor %d does not fit linkage packing", proc))
	}
	if id >= 1<<20 {
		panic(fmt.Sprintf("core: reply id %d does not fit linkage packing", id))
	}
	return uint32(proc)<<20 | id
}

// unpackLinkage reverses packLinkage.
func unpackLinkage(w uint32) (proc int, id uint32) {
	return int(w >> 20), w & (1<<20 - 1)
}

// WipeVolatile discards processor proc's volatile runtime state when a
// loss-inducing crash (a wipe fault window) hits it: the location-hint
// cache is cleared — hints are rediscovered through forwarding, exactly
// as after a cold start. Reply slots are origin-side state and live on
// the processors that issued the requests; requests the wiped processor
// owed answers to resolve through the reliability layer's
// retransmission and give-up machinery. It returns the number
// of live objects currently homed on proc, which recovery must
// re-register from the durable log.
func (rt *Runtime) WipeVolatile(proc int) int {
	rt.locHints[proc] = nil
	return rt.Objects.HomedAt(proc)
}

// chargeSendTo accounts the client-stub send path for a payload of
// words 32-bit words on collector col — the sending processor's (see
// ColAt) — and returns its total cycle cost.
func (rt *Runtime) chargeSendTo(col *stats.Collector, words uint64) uint64 {
	m := &rt.Model
	col.AddCycles(stats.CatSendLinkage, m.SendLinkage)
	col.AddCycles(stats.CatSendAllocPacket, m.SendAllocPacket)
	col.AddCycles(stats.CatMessageSend, m.MessageSend)
	col.AddCycles(stats.CatMarshal, m.Marshal(words))
	return m.SendLinkage + m.SendAllocPacket + m.MessageSend + m.Marshal(words)
}

// chargeRecvTo accounts the server-side receive path (dispatch of an
// rpc or migrate message) on the receiving processor's collector col and
// returns its total cycle cost.
func (rt *Runtime) chargeRecvTo(col *stats.Collector, words uint64, short bool) uint64 {
	m := &rt.Model
	col.AddCycles(stats.CatCopyPacket, m.CopyPacket(words))
	col.AddCycles(stats.CatRecvLinkage, m.RecvLinkage)
	col.AddCycles(stats.CatUnmarshal, m.Unmarshal(words))
	col.AddCycles(stats.CatGIDTranslation, m.GIDTranslation)
	col.AddCycles(stats.CatScheduler, m.Scheduler)
	col.AddCycles(stats.CatForwardingCheck, m.ForwardingCheck)
	col.AddCycles(stats.CatRecvAllocPacket, m.RecvAllocPacket)
	total := m.CopyPacket(words) + m.RecvLinkage + m.Unmarshal(words) +
		m.GIDTranslation + m.Scheduler + m.ForwardingCheck + m.RecvAllocPacket
	if !short {
		col.AddCycles(stats.CatThreadCreation, m.ThreadCreation)
		total += m.ThreadCreation
	}
	return total
}

// ChargeSendPath exposes the client-stub send-path accounting of
// processor proc to sibling runtime layers (the replication package
// prices its update broadcasts through the same model).
func (rt *Runtime) ChargeSendPath(proc int, words uint64) uint64 {
	return rt.chargeSendTo(rt.ColAt(proc), words)
}

// ChargeRecvReplyPath exposes the light receive-path accounting of
// processor proc.
func (rt *Runtime) ChargeRecvReplyPath(proc int, words uint64) uint64 {
	return rt.chargeRecvReplyTo(rt.ColAt(proc), words)
}

// chargeRecvReplyTo accounts the client-stub path for an incoming reply
// on the receiving processor's collector col. Prelude dispatches
// replies through the same general-purpose stubs as requests (§4.3), so
// the path pays copy, linkage, unmarshal, packet bookkeeping, and the
// scheduler wakeup — everything but object-ID translation, the
// forwarding check, and handler-thread creation.
func (rt *Runtime) chargeRecvReplyTo(col *stats.Collector, words uint64) uint64 {
	m := &rt.Model
	col.AddCycles(stats.CatCopyPacket, m.CopyPacket(words))
	col.AddCycles(stats.CatRecvLinkage, m.RecvLinkage)
	col.AddCycles(stats.CatUnmarshal, m.Unmarshal(words))
	col.AddCycles(stats.CatScheduler, m.Scheduler)
	col.AddCycles(stats.CatRecvAllocPacket, m.RecvAllocPacket)
	return m.CopyPacket(words) + m.RecvLinkage + m.Unmarshal(words) +
		m.Scheduler + m.RecvAllocPacket
}
