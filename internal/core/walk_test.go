package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"compmig/internal/cost"
	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/network"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// A toy operation written once for every mechanism: sum the values
// along a chain of links, one link per processor.

type link struct {
	name string
	val  uint64
	next gid.GID
}

func (l *link) StateWords() uint64 { return 4 }

// chain is a machine of three link processors and a requester on
// processor 3, plus the log of the links visited in order.
type chain struct {
	eng     *sim.Engine
	col     *stats.Collector
	rt      *Runtime
	links   []gid.GID
	mRead   MethodID
	cSum    ContID
	visited []string
}

// chainSum is the operation record: the next link and the running sum.
type chainSum struct {
	c   *chain
	cur gid.GID
	acc uint64
	res cellReply
}

func (w *chainSum) MarshalWords(wr *msg.Writer) { wr.PutU64(uint64(w.cur)); wr.PutU64(w.acc) }

func (w *chainSum) UnmarshalWords(r *msg.Reader) error {
	w.cur, w.acc = gid.GID(r.U64()), r.U64()
	return r.Err()
}

func (w *chainSum) At() gid.GID    { return w.cur }
func (w *chainSum) Result() Result { return &w.res }

func (w *chainSum) Visit(t *Task, state any, _ Mechanism) bool {
	l := state.(*link)
	w.c.visited = append(w.c.visited, l.name)
	t.Work(10)
	w.acc += l.val
	w.cur = l.next
	w.res.val = w.acc
	return w.cur.IsNil()
}

func (w *chainSum) RPC(t *Task) bool {
	var rep linkReply
	if err := t.Call(w.cur, w.c.mRead, nil, &rep); err != nil {
		panic(err)
	}
	w.acc += rep.val
	w.cur = rep.next
	w.res.val = w.acc
	return w.cur.IsNil()
}

type linkReply struct {
	val  uint64
	next gid.GID
}

func (r *linkReply) MarshalWords(w *msg.Writer) { w.PutU64(r.val); w.PutU64(uint64(r.next)) }

func (r *linkReply) UnmarshalWords(rd *msg.Reader) error {
	r.val, r.next = rd.U64(), gid.GID(rd.U64())
	return rd.Err()
}

// newChain links a (value 1, processor 0) -> b (2, 1) -> c (4, 2). With
// loop set, one link on the requester's processor points at itself. The
// machine retires when the test ends.
func newChain(t testing.TB, loop bool) *chain {
	eng := sim.NewEngine(3)
	m := sim.NewMachine(eng, 4)
	t.Cleanup(m.Retire)
	col := stats.NewCollector()
	model := cost.Software()
	net := network.New(m, network.Crossbar{}, []*stats.Collector{col}, model.NetTransitBase, model.NetTransitPerHop)
	c := &chain{eng: eng, col: col, rt: New(m, net, []*stats.Collector{col}, model)}
	c.mRead = c.rt.RegisterMethod("link.read", true, func(t *Task, self any, _ *msg.Reader, reply *msg.Writer) {
		l := self.(*link)
		c.visited = append(c.visited, l.name)
		t.Work(10)
		(&linkReply{val: l.val, next: l.next}).MarshalWords(reply)
	})
	c.cSum = RegisterWalker(c.rt, "chain.sum", func(s *chainSum) { s.c = c })
	if loop {
		l := &link{name: "loop", val: 1}
		g := c.rt.Objects.New(3, l)
		l.next = g
		c.links = []gid.GID{g}
		return c
	}
	next := gid.Nil
	for i := 2; i >= 0; i-- {
		next = c.rt.Objects.New(i, &link{name: string(rune('a' + i)), val: 1 << i, next: next})
		c.links = append([]gid.GID{next}, c.links...)
	}
	return c
}

// sum walks the chain from its first link under mech on the requester.
func (c *chain) sum(mech Mechanism) (got uint64, err error) {
	c.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := c.rt.NewTask(th, 3)
		w := task.Record(c.cSum).(*chainSum)
		*w = chainSum{c: c, cur: c.links[0]}
		task.Walk(mech, c.cSum, w)
		got = w.res.val
	})
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	return got, c.eng.Run()
}

func TestWalkEveryMechanism(t *testing.T) {
	for _, mech := range []Mechanism{RPC, Migrate, SharedMem, ObjMigrate} {
		c := newChain(t, false)
		got, err := c.sum(mech)
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		if got != 7 {
			t.Errorf("%v: sum %d, want 7", mech, got)
		}
		if want := []string{"a", "b", "c"}; !reflect.DeepEqual(c.visited, want) {
			t.Errorf("%v: visit order %v, want %v", mech, c.visited, want)
		}
		migrates := c.col.MigrationsSent
		switch mech {
		case Migrate:
			// One migration per remote hop, and one short-circuit reply.
			if sent := c.col.TotalMessages(); migrates != 3 || sent != 4 {
				t.Errorf("CM sent %d migrates and %d messages, want 3 and 4", migrates, sent)
			}
		case SharedMem, ObjMigrate:
			if migrates != 0 {
				t.Errorf("%v sent %d migrates, want 0", mech, migrates)
			}
		}
		if mech == ObjMigrate {
			for _, g := range c.links {
				if home := c.rt.Objects.Home(g); home != 3 {
					t.Errorf("OM left link %#x on processor %d, want the requester's 3", uint64(g), home)
				}
			}
		}
	}
}

func TestWalkHopBound(t *testing.T) {
	for _, mech := range []Mechanism{RPC, Migrate, SharedMem, ObjMigrate} {
		_, err := newChain(t, true).sum(mech)
		if err == nil || !strings.Contains(err.Error(), "walk did not terminate") {
			t.Errorf("%v: a walk that never finishes returned %v, want the hop-bound panic", mech, err)
		}
	}
}

// shortRead is a chainSum whose decoder leaves the last word of its
// record unread.
type shortRead struct{ chainSum }

func (w *shortRead) UnmarshalWords(r *msg.Reader) error {
	w.cur, w.acc = gid.GID(r.U64()), uint64(r.U32())
	return r.Err()
}

// panicOf runs c's engine and returns what it panicked with.
func (c *chain) panicOf() (p any) {
	defer func() { p = recover() }()
	c.eng.Run()
	return nil
}

func TestMigrationRejectsTrailingWords(t *testing.T) {
	c := newChain(t, false)
	id := RegisterWalker(c.rt, "chain.short", func(s *shortRead) { s.c = c })
	c.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := c.rt.NewTask(th, 3)
		w := task.Record(id).(*shortRead)
		w.c, w.cur = c, c.links[0]
		task.Walk(Migrate, id, w)
	})
	if p := c.panicOf(); !strings.Contains(fmt.Sprint(p), "1 trailing words") {
		t.Errorf("a record that leaves a word unread panicked with %v, want the trailing-words check", p)
	}
}

func TestMethodMayNotStartMigratingWalk(t *testing.T) {
	c := newChain(t, false)
	mWalk := c.rt.RegisterMethod("link.walk", false, func(t *Task, _ any, _ *msg.Reader, _ *msg.Writer) {
		w := t.Record(c.cSum).(*chainSum)
		*w = chainSum{c: c, cur: c.links[0]}
		t.Walk(Migrate, c.cSum, w)
	})
	c.eng.Spawn("req", 0, func(th *sim.Thread) {
		c.rt.NewTask(th, 3).Call(c.links[1], mWalk, nil, nil)
	})
	if p := c.panicOf(); !strings.Contains(fmt.Sprint(p), "instance method activations") {
		t.Errorf("a method starting a migrating walk panicked with %v, want the instance-method check", p)
	}
}
