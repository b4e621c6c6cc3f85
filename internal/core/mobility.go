package core

import (
	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/network"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// Object mobility — the Emerald-style mechanism the paper wanted to
// compare against ("our group has not finished implementing object
// migration in Prelude yet", §4). Objects can relocate; senders address
// messages at their last known location, and a message that arrives
// where the object no longer lives is forwarded — which is what the
// Table 5 "forwarding check" on every receive path is for.

// locate returns proc's best guess of g's home: a learned location if
// one is cached, the birth processor otherwise.
func (rt *Runtime) locate(proc int, g gid.GID) int {
	if hints := rt.locHints[proc]; hints != nil {
		if h, ok := hints[g]; ok {
			return h
		}
	}
	return g.Home()
}

// learn records a location hint for proc (piggybacked on replies and
// completed pulls in a real system).
func (rt *Runtime) learn(proc int, g gid.GID, home int) {
	if home == g.Home() {
		if hints := rt.locHints[proc]; hints != nil {
			delete(hints, g)
		}
		return
	}
	if rt.locHints[proc] == nil {
		rt.locHints[proc] = make(map[gid.GID]int)
	}
	rt.locHints[proc][g] = home
}

// forward re-sends m, which arrived at a stale location, toward the
// object's current home actual, charging the forwarding path on the
// stale processor. The message itself travels on, with its Src and Dst
// rewritten: its payload is untouched and its next receiver releases
// it. The forward leg is guarded by reply slot id of processor proc —
// the origin's linkage the rpc, migrate and obj-fetch payloads carry —
// so a leg the reliability layer gives up on fails the operation
// instead of the run.
func (rt *Runtime) forward(m *network.Message, actual int, arrive func(*network.Message), proc int, id uint32) {
	ls := rt.laneAt(m.Dst)
	ls.col.Forwards++
	stale := rt.Mach.Proc(m.Dst)
	cost := rt.Model.ForwardingCheck + rt.Model.MessageSend
	ls.col.AddCycles(stats.CatForwardingCheck, rt.Model.ForwardingCheck)
	ls.col.AddCycles(stats.CatMessageSend, rt.Model.MessageSend)
	m.Src, m.Dst = m.Dst, actual
	stale.ExecAsync(cost, ls.depart(m, arrive, rt.guard(proc, id), gid.Nil).send)
}

// PullObject relocates object g to the calling task's processor —
// whole-object data migration without replication, as in Emerald. The
// object's state (stateWords on the wire) travels in one message after
// a fetch request; subsequent accesses from this processor are local
// until someone else pulls the object away. No-op when already local.
// The error is non-nil only when a fault plan is active and the
// recovery protocol gave up on the fetch (a *fault.GiveUpError).
func (t *Task) PullObject(g gid.GID, stateWords uint64) error {
	rt := t.rt
	here := t.proc.ID()
	if rt.Objects.Home(g) == here {
		return nil
	}
	if rt.onObject == nil {
		rt.onFetch, rt.onObject = rt.deliverFetch, rt.deliverObject
	}
	ls := rt.laneAt(here)
	id, slot := rt.newReply(here)
	w := ls.scratch()
	w.PutU64(uint64(g))
	w.PutU32(packLinkage(here, id))
	w.PutU32(uint32(stateWords))
	t.send(ls, ls.message(here, "obj-fetch", w.Words()), rt.onFetch, rt.guard(here, id), g)
	// The object's state is installed by deliverObject; the slot carries
	// no reply words.
	if _, _, err := slot.wait(t.th); err != nil {
		return err
	}
	if rt.Obs != nil {
		rt.Obs.Access(here, g)
	}
	rt.learn(here, g, here)
	return nil
}

// pinInFlight is the pin of an object that has left its old home but not
// yet reached the new one. Shipping it onward from the new home before
// it lands would wake its puller to find it gone again — the puller
// re-fetches, and two pullers can chase one object forever.
const pinInFlight = ^sim.Time(0)

// fetchArrival is one object fetch from its delivery at (what the
// sender believed was) the object's home, through any pin waits, to
// the obj-move it sends the object's state back in. It holds the fetch
// message until the fetch stops waiting — a retry may still forward it
// — and returns to its pool once the move's send segment is booked.
// Each lane pools its own, and each record binds its pin-wait retry and
// ship callbacks once.
type fetchArrival struct {
	ls *laneState

	home       *sim.Proc        // where the fetch runs: the object's home until it ships
	m          *network.Message // the fetch, until it is consumed or forwarded
	g          gid.GID
	requester  int    // processor the object moves to
	replyID    uint32 // reply slot on the requester
	stateWords uint64

	retry func() // bound a.run, for ScheduleOn
	ship  func() // bound a.shipObject, for ExecAsync
}

func (ls *laneState) getFetch() *fetchArrival {
	if a := pop(&ls.fetches); a != nil {
		return a
	}
	a := &fetchArrival{ls: ls}
	a.retry, a.ship = a.run, a.shipObject
	return a
}

func (a *fetchArrival) put() {
	a.home, a.m = nil, nil
	a.ls.fetches = append(a.ls.fetches, a)
}

// deliverFetch handles an object-fetch: it decodes the fetch into a
// pooled record and runs it (see fetchArrival.run).
func (rt *Runtime) deliverFetch(m *network.Message) {
	a := rt.laneAt(m.Dst).getFetch()
	var r msg.Reader
	r.Reset(m.Payload)
	a.home, a.m, a.g = rt.Mach.Proc(m.Dst), m, gid.GID(r.U64())
	a.requester, a.replyID = unpackLinkage(r.U32())
	a.stateWords = uint64(r.U32())
	a.run()
}

// run forwards the fetch if the object moved on, waits out the pin
// window if the object is still on its way here or just arrived (Emerald
// pins an object while an invocation runs on it, which also prevents two
// pullers live-locking by stealing it back and forth before either
// touches it), and otherwise charges the receive path and ships the
// object's state to the requester. Every retry after a pin wait runs
// all three checks again, so the fetch message is released only once
// the last retry has found the object free here.
func (a *fetchArrival) run() {
	rt, m := a.ls.rt, a.m
	if actual := rt.Objects.Home(a.g); actual != m.Dst {
		requester, id := a.requester, a.replyID
		a.put()
		rt.forward(m, actual, rt.onFetch, requester, id)
		return
	}
	eng := a.home.Engine()
	if until, pinned := rt.pins[a.g]; pinned && until > eng.Now() {
		wait := until - eng.Now()
		if until == pinInFlight {
			wait = rt.PinCycles // the arrival time is not known here: poll
		}
		eng.ScheduleOn(wait, m.Dst, a.retry)
		return
	}
	words := uint64(len(m.Payload)) + network.HeaderWords
	overhead := rt.chargeRecvTo(a.ls.col, words, true)
	rt.release(m)
	a.m = nil
	a.home.ExecAsync(overhead, a.ship)
}

// shipObject moves the object now — accesses racing in behind it
// forward to the new home, which holds them until the object arrives —
// marshals the obj-move (the reply id, the gid, and stateWords zero
// words standing for the object's state) and books its send segment,
// which sends it when it ends. The record returns to its pool here.
func (a *fetchArrival) shipObject() {
	rt, ls := a.ls.rt, a.ls
	rt.Objects.Move(a.g, a.requester)
	rt.pins[a.g] = pinInFlight
	w := ls.scratch()
	w.PutU32(a.replyID)
	w.PutU64(uint64(a.g))
	for i := uint64(0); i < a.stateWords; i++ {
		w.PutU32(0)
	}
	m := ls.message(a.home.ID(), "obj-move", w.Words())
	m.Dst = a.requester
	outWords := uint64(len(m.Payload)) + network.HeaderWords
	ls.col.AddCycles(stats.CatMarshal, rt.Model.Marshal(outWords))
	ls.col.AddCycles(stats.CatMessageSend, rt.Model.MessageSend)
	d := ls.depart(m, rt.onObject, rt.guard(a.requester, a.replyID), gid.Nil)
	a.home.ExecAsync(rt.Model.Marshal(outWords)+rt.Model.MessageSend, d.send)
	a.put()
}

// moveArrival is one obj-move between its delivery and the completion
// of its puller's reply slot.
type moveArrival struct {
	ls *laneState

	m *network.Message // the move: its reply id, the gid, the state words

	install func() // bound a.run, for ExecAsync
}

func (ls *laneState) getMove() *moveArrival {
	if a := pop(&ls.moves); a != nil {
		return a
	}
	a := &moveArrival{ls: ls}
	a.install = a.run
	return a
}

// deliverObject is the receive path of an obj-move at the object's new
// home (see moveArrival.run).
func (rt *Runtime) deliverObject(m *network.Message) {
	ls := rt.laneAt(m.Dst)
	words := uint64(len(m.Payload)) + network.HeaderWords
	overhead := rt.chargeRecvReplyTo(ls.col, words)
	a := ls.getMove()
	a.m = m
	rt.Mach.Proc(m.Dst).ExecAsync(overhead, a.install)
}

// run installs the moved object at its new home, pinned so its new
// holder gets to use it, releases the message it has read, returns the
// record to its pool and wakes the puller.
func (a *moveArrival) run() {
	rt, m := a.ls.rt, a.m
	a.m = nil
	a.ls.moves = append(a.ls.moves, a)
	var r msg.Reader
	r.Reset(m.Payload)
	id := r.U32()
	g := gid.GID(r.U64())
	dst := m.Dst
	rt.release(m)
	rt.pins[g] = rt.Mach.Proc(dst).Engine().Now() + rt.PinCycles
	rt.completeReply(dst, id, nil, nil)
}
