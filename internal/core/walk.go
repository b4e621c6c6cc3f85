package core

import (
	"compmig/internal/gid"
	"compmig/internal/msg"
)

// Walker is an operation written once for every mechanism (§3.1: the
// mechanism is an annotation on the call site, not a second program). It
// is a continuation record whose fields are the operation's live
// variables, and Walk carries it from object to object: the mechanisms
// differ only in how it reaches the object it visits next. Computation
// migration ships the record there, shared memory visits the object's
// state in place, object migration pulls the object to the requester,
// and RPC makes the operation's remote calls to it.
type Walker interface {
	msg.Marshaler
	msg.Unmarshaler
	// At names the object the operation visits next.
	At() gid.GID
	// Visit applies the operation's step at the object At names, whose
	// state is state, and advances the record; done reports the
	// operation complete, its result in Result. A step that prices or
	// orders its work differently under one mechanism branches on mech.
	Visit(t *Task, state any, mech Mechanism) (done bool)
	// RPC is Visit from the requester: the step's remote calls to the
	// object At names, which are the per-access messages §2.5 and
	// Figure 1 count.
	RPC(t *Task) (done bool)
	// Result points at the operation's result in the record: what the
	// last hop of a migrated operation returns to the requester.
	Result() Result
}

// Result is an operation's result record.
type Result interface {
	msg.Marshaler
	msg.Unmarshaler
}

// Movable is the state of an object that object migration can move: its
// size on the wire.
type Movable interface {
	StateWords() uint64
}

// checkHops bounds every walk: an operation still moving after this many
// object visits is looping, not contending.
func checkHops(hop int) {
	if hop > 10000 {
		panic("core: walk did not terminate")
	}
}

// RegisterWalker installs an operation record type under a unique name;
// the factory makes an empty record, with its environment references
// set, for Record and for the receiving side of a migration.
func (rt *Runtime) RegisterWalker(name string, factory func() Walker) ContID {
	if _, dup := rt.contID[name]; dup {
		panic("core: duplicate walker " + name)
	}
	id := ContID(len(rt.conts))
	rt.conts = append(rt.conts, factory)
	rt.contID[name] = id
	return id
}

// Record returns an idle record of walker type id from the pool of the
// task's lane, for the caller to fill in and pass to Walk. The record
// returns to the pool when Walk ends: read its result before the task
// next blocks.
func (t *Task) Record(id ContID) Walker {
	ls := t.rt.laneAt(t.proc.ID())
	if n := int(id) + 1 - len(ls.records); n > 0 {
		ls.records = append(ls.records, make([][]Walker, n)...)
	}
	if w := pop(&ls.records[id]); w != nil {
		return w
	}
	return t.rt.conts[id]()
}

// Walk runs operation record w, of walker type id, to completion under
// mech, and returns w to its pool. It runs on a pooled activation of the
// task's thread, so neither the task nor the record escapes to the heap
// per operation. Its switch is the runtime's one dispatch over the
// mechanisms.
func (t *Task) Walk(mech Mechanism, id ContID, w Walker) {
	rt := t.rt
	ls := rt.laneAt(t.proc.ID())
	a := pop(&ls.acts)
	if a == nil {
		a = new(Task)
	}
	*a = Task{rt: rt, th: t.th, proc: t.proc, isMethod: t.isMethod, child: a.child}
	for hop, done := 0, false; !done; hop++ {
		checkHops(hop)
		switch mech {
		case RPC:
			done = w.RPC(a)
		case Migrate:
			// The record travels on by itself; only the result comes back.
			if err := a.do(id, w); err != nil {
				panic("core: migrated operation failed: " + err.Error())
			}
			done = true
		case SharedMem:
			done = w.Visit(a, rt.Objects.State(w.At()), mech)
		case ObjMigrate:
			// Pull the object until it is local, then visit it before
			// any yield: it may be pulled away again after.
			g := w.At()
			for !a.IsLocal(g) {
				if err := a.PullObject(g, rt.Objects.State(g).(Movable).StateWords()); err != nil {
					panic("core: object pull failed: " + err.Error())
				}
			}
			done = w.Visit(a, rt.Objects.State(g), mech)
		default:
			panic("core: unknown mechanism " + mech.String())
		}
	}
	*a = Task{child: a.child}
	ls.acts = append(ls.acts, a)
	ls.records[id] = append(ls.records[id], w)
}

// hop is computation migration's way of reaching each object: while the
// next object is local the record visits it here, and otherwise the
// record ships there (as continuation id) and this activation ends. The
// hop that completes the operation returns its result to the requester.
func (t *Task) hop(id ContID, w Walker) {
	for hop := 0; ; hop++ {
		checkHops(hop)
		g := w.At()
		if !t.IsLocal(g) {
			t.ship(g, id, w)
			return
		}
		if w.Visit(t, t.State(g), Migrate) {
			t.finish(w.Result())
			return
		}
	}
}
