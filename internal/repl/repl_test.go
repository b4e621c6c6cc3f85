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
	net := network.New(eng, network.Crossbar{}, col, model.NetTransitBase, model.NetTransitPerHop)
	rt := core.New(eng, m, net, col, model)
	return eng, rt, NewTable(rt), col
}

func TestReplicaReadIsLocal(t *testing.T) {
	eng, rt, tbl, col := newRig(8)
	g := rt.Objects.New(3, &rootState{children: []int{1, 2, 3}})
	tbl.Replicate(g, rt.Objects.State(g), 16)

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
	if tbl.entries[g].version != 1 {
		t.Errorf("version = %d", tbl.entries[g].version)
	}
}

func TestPublishBroadcasts(t *testing.T) {
	eng, rt, tbl, col := newRig(6)
	g := rt.Objects.New(0, &rootState{children: []int{1}})
	tbl.Replicate(g, rt.Objects.State(g), 8)

	eng.Spawn("writer", 0, func(th *sim.Thread) {
		task := rt.NewTask(th, 2)
		tbl.Publish(task, g, &rootState{children: []int{1, 2}}, 12)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if col.TotalMessages() != 5 {
		t.Errorf("update messages = %d, want 5 (all procs but publisher)", col.TotalMessages())
	}
	if tbl.entries[g].version != 2 {
		t.Errorf("version = %d", tbl.entries[g].version)
	}
	if col.ReplicaWrites != 1 {
		t.Errorf("ReplicaWrites = %d", col.ReplicaWrites)
	}
}

func TestReadAfterPublishSeesNewState(t *testing.T) {
	eng, rt, tbl, _ := newRig(4)
	g := rt.Objects.New(0, &rootState{children: []int{9}})
	tbl.Replicate(g, rt.Objects.State(g), 4)

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
	tbl.Replicate(g, rt.Objects.State(g), 4)
	if !tbl.IsReplicated(g) || tbl.IsReplicated(h) {
		t.Error("IsReplicated wrong")
	}
}

// TestDropSwitchesToMigrationMidRun drives the replication table the way
// an online policy would: writers publish new versions concurrently
// (each publish broadcasts invalidating updates to every processor)
// while a policy thread switches the object from replication to
// migration mid-run by calling Drop and routing later writes through the
// object's home. Every increment must survive the handoff, and the whole
// interleaving must be deterministic.
func TestDropSwitchesToMigrationMidRun(t *testing.T) {
	const (
		nprocs     = 8
		nwriters   = 6
		increments = 10
	)
	type counterState struct{ n int }

	run := func() (final, version int, updates uint64) {
		eng, rt, tbl, col := newRig(nprocs)
		g := rt.Objects.New(0, &counterState{})
		tbl.Replicate(g, rt.Objects.State(g), 4)

		var (
			lock     sim.Mutex
			migrated *counterState
		)
		for w := 0; w < nwriters; w++ {
			w := w
			eng.Spawn("writer", sim.Time(w*7), func(th *sim.Thread) {
				task := rt.NewTask(th, w%nprocs)
				for i := 0; i < increments; i++ {
					lock.Lock(th)
					if tbl.IsReplicated(g) {
						cur := tbl.Read(task, g).(*counterState)
						tbl.Publish(task, g, &counterState{n: cur.n + 1}, 4)
					} else {
						// Migration path: mutate the single home copy.
						task.Work(20)
						migrated.n++
					}
					lock.Unlock(th)
					th.Sleep(sim.Time(50 + w*13))
				}
			})
		}
		eng.Spawn("policy-switch", 2500, func(th *sim.Thread) {
			lock.Lock(th)
			st, _ := tbl.Drop(g)
			migrated = st.(*counterState)
			lock.Unlock(th)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if tbl.IsReplicated(g) {
			t.Fatal("object still replicated after Drop")
		}
		if migrated == nil {
			t.Fatal("policy switch never ran")
		}
		return migrated.n, int(col.ReplicaWrites) + 1, col.TotalMessages()
	}

	final, version, updates := run()
	if final != nwriters*increments {
		t.Fatalf("lost updates across the switch: counter = %d, want %d",
			final, nwriters*increments)
	}
	if updates == 0 {
		t.Fatal("no update broadcasts before the switch: switch happened too early to test anything")
	}
	f2, v2, u2 := run()
	if f2 != final || v2 != version || u2 != updates {
		t.Fatalf("nondeterministic interleaving: run1=(%d,%d,%d) run2=(%d,%d,%d)",
			final, version, updates, f2, v2, u2)
	}
}

func TestDropUnreplicatedPanics(t *testing.T) {
	_, rt, tbl, _ := newRig(2)
	g := rt.Objects.New(0, &rootState{})
	defer func() {
		if recover() == nil {
			t.Fatal("Drop of unreplicated object did not panic")
		}
	}()
	tbl.Drop(g)
}

func TestDoubleReplicatePanics(t *testing.T) {
	_, rt, tbl, _ := newRig(2)
	g := rt.Objects.New(0, &rootState{})
	tbl.Replicate(g, rt.Objects.State(g), 4)
	defer func() {
		if recover() == nil {
			t.Fatal("double Replicate did not panic")
		}
	}()
	tbl.Replicate(g, rt.Objects.State(g), 4)
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
