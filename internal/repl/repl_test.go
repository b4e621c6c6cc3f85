package repl

import (
	"testing"

	"compmig/internal/cost"
	"compmig/internal/network"
	"compmig/internal/sim"
	"compmig/internal/stats"

	"compmig/internal/core"
)

type rootState struct{ children []int }

func newRig(nprocs int) (*sim.Engine, *core.Runtime, *Table, *stats.Collector) {
	eng := sim.NewEngine(3)
	m := sim.NewMachine(eng, nprocs)
	col := stats.NewCollector()
	model := cost.Software()
	net := network.New(m, network.Crossbar{}, []*stats.Collector{col}, model.NetTransitBase, model.NetTransitPerHop)
	rt := core.New(m, net, []*stats.Collector{col}, model)
	return eng, rt, NewTable(rt), col
}

func TestReplicaReadIsLocal(t *testing.T) {
	eng, rt, tbl, col := newRig(8)
	g := rt.Objects.New(3, &rootState{children: []int{1, 2, 3}})
	tbl.Replicate(g, rt.Objects.State(g))

	reads := 0
	for p := 0; p < 8; p++ {
		p := p
		eng.Spawn("reader", 0, func(th *sim.Thread) {
			task := rt.NewTask(th, p)
			st := tbl.Read(task, g).(*rootState)
			if len(st.children) != 3 {
				t.Errorf("proc %d read wrong state", p)
			}
			reads++
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if reads != 8 {
		t.Fatalf("reads = %d", reads)
	}
	if col.TotalMessages() != 0 {
		t.Errorf("replica reads sent %d messages", col.TotalMessages())
	}
	if col.ReplicaReads != 8 {
		t.Errorf("ReplicaReads = %d", col.ReplicaReads)
	}
	if tbl.entries[g] != rt.Objects.State(g) {
		t.Error("replica is not the replicated snapshot")
	}
}

func TestPublishBroadcasts(t *testing.T) {
	eng, rt, tbl, col := newRig(6)
	g := rt.Objects.New(0, &rootState{children: []int{1}})
	tbl.Replicate(g, rt.Objects.State(g))

	next := &rootState{children: []int{1, 2}}
	eng.Spawn("writer", 0, func(th *sim.Thread) {
		task := rt.NewTask(th, 2)
		tbl.Publish(task, g, next, 12)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if col.TotalMessages() != 5 {
		t.Errorf("update messages = %d, want 5 (all procs but publisher)", col.TotalMessages())
	}
	if tbl.entries[g] != next {
		t.Error("Publish did not install the new snapshot")
	}
	if col.ReplicaWrites != 1 {
		t.Errorf("ReplicaWrites = %d", col.ReplicaWrites)
	}
}

func TestReadAfterPublishSeesNewState(t *testing.T) {
	eng, rt, tbl, _ := newRig(4)
	g := rt.Objects.New(0, &rootState{children: []int{9}})
	tbl.Replicate(g, rt.Objects.State(g))

	var got int
	eng.Spawn("seq", 0, func(th *sim.Thread) {
		task := rt.NewTask(th, 1)
		tbl.Publish(task, g, &rootState{children: []int{7, 8}}, 6)
		th.Sleep(1000)
		got = len(tbl.Read(task, g).(*rootState).children)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("read stale replica after publish: %d children", got)
	}
}

func TestIsReplicated(t *testing.T) {
	_, rt, tbl, _ := newRig(2)
	g := rt.Objects.New(0, &rootState{})
	h := rt.Objects.New(1, &rootState{})
	tbl.Replicate(g, rt.Objects.State(g))
	if !tbl.IsReplicated(g) || tbl.IsReplicated(h) {
		t.Error("IsReplicated wrong")
	}
}

func TestDoubleReplicatePanics(t *testing.T) {
	_, rt, tbl, _ := newRig(2)
	g := rt.Objects.New(0, &rootState{})
	tbl.Replicate(g, rt.Objects.State(g))
	defer func() {
		if recover() == nil {
			t.Fatal("double Replicate did not panic")
		}
	}()
	tbl.Replicate(g, rt.Objects.State(g))
}

func TestReadUnreplicatedPanics(t *testing.T) {
	eng, rt, tbl, _ := newRig(2)
	g := rt.Objects.New(0, &rootState{})
	caught := false
	eng.Spawn("reader", 0, func(th *sim.Thread) {
		defer func() { caught = recover() != nil }()
		_ = tbl.Read(rt.NewTask(th, 0), g)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !caught {
		t.Fatal("Read of unreplicated object did not panic")
	}
}
