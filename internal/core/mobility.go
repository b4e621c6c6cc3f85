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

// forward re-sends a message that arrived at a stale location toward the
// object's current home, charging the forwarding path on the stale
// processor.
func (rt *Runtime) forward(m *network.Message, actual int, arrive func(*network.Message)) {
	col := rt.colAt(m.Dst)
	col.Forwards++
	stale := rt.Mach.Proc(m.Dst)
	cost := rt.Model.ForwardingCheck + rt.Model.MessageSend
	col.AddCycles(stats.CatForwardingCheck, rt.Model.ForwardingCheck)
	col.AddCycles(stats.CatMessageSend, rt.Model.MessageSend)
	stale.ExecAsync(cost, func() {
		rt.Net.Send(&network.Message{Src: m.Dst, Dst: actual, Kind: m.Kind, Payload: m.Payload}, arrive)
	})
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
	id, slot := rt.newReply(here)
	w := msg.NewWriter(5)
	w.PutU64(uint64(g))
	w.PutU32(packLinkage(here, id))
	w.PutU32(uint32(stateWords))
	payload := w.Words()
	words := uint64(len(payload)) + network.HeaderWords

	t.th.Exec(t.proc, rt.chargeSendTo(rt.colAt(here), words))
	rt.Net.SendGuarded(&network.Message{Src: here, Dst: rt.locate(here, g), Kind: "obj-fetch", Payload: payload},
		rt.deliverFetch, rt.onGiveUp, rt.guard(here, id))
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

// deliverFetch handles an object-fetch at (what the sender believed was)
// the object's home: forward if the object moved on, wait out the pin
// window if the object is still on its way here or just arrived (Emerald
// pins an object while an invocation runs on it, which also prevents two
// pullers live-locking by stealing it back and forth before either
// touches it), and otherwise ship the object's state to the requester.
func (rt *Runtime) deliverFetch(m *network.Message) {
	r := msg.NewReader(m.Payload)
	g := gid.GID(r.U64())
	requester, replyID := unpackLinkage(r.U32())
	stateWords := uint64(r.U32())

	actual := rt.Objects.Home(g)
	if actual != m.Dst {
		rt.forward(m, actual, rt.deliverFetch)
		return
	}
	here := rt.Mach.Proc(m.Dst)
	eng := here.Engine()
	if until, pinned := rt.pins[g]; pinned && until > eng.Now() {
		wait := until - eng.Now()
		if until == pinInFlight {
			wait = rt.PinCycles // the arrival time is not known here: poll
		}
		eng.ScheduleOn(wait, m.Dst, func() { rt.deliverFetch(m) })
		return
	}
	col := rt.colAt(m.Dst)
	words := uint64(len(m.Payload)) + network.HeaderWords
	overhead := rt.chargeRecvTo(col, words, true)
	here.ExecAsync(overhead, func() {
		// Move now: accesses racing in behind us forward to the new home,
		// which holds them until the object arrives.
		rt.Objects.Move(g, requester)
		rt.pins[g] = pinInFlight
		w := msg.NewWriter(int(stateWords) + 3)
		w.PutU32(replyID)
		w.PutU64(uint64(g))
		w.PutRaw(make([]uint32, stateWords))
		payload := w.Words()
		outWords := uint64(len(payload)) + network.HeaderWords
		col.AddCycles(stats.CatMarshal, rt.Model.Marshal(outWords))
		col.AddCycles(stats.CatMessageSend, rt.Model.MessageSend)
		here.ExecAsync(rt.Model.Marshal(outWords)+rt.Model.MessageSend, func() {
			rt.Net.SendGuarded(&network.Message{Src: m.Dst, Dst: requester, Kind: "obj-move", Payload: payload},
				rt.deliverObject, rt.onGiveUp, rt.guard(requester, replyID))
		})
	})
}

// deliverObject installs a moved object at its new home and wakes the
// puller. The object arrives pinned so its new holder gets to use it.
func (rt *Runtime) deliverObject(m *network.Message) {
	words := uint64(len(m.Payload)) + network.HeaderWords
	overhead := rt.chargeRecvReplyTo(rt.colAt(m.Dst), words)
	here := rt.Mach.Proc(m.Dst)
	here.ExecAsync(overhead, func() {
		r := msg.NewReader(m.Payload)
		id := r.U32()
		rt.pins[gid.GID(r.U64())] = here.Engine().Now() + rt.PinCycles
		rt.completeReply(m.Dst, id, nil, nil)
	})
}
