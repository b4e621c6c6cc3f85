package compmig

import (
	"testing"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/machine"
	"compmig/internal/mem"
	"compmig/internal/repl"
	"compmig/internal/sim"
)

// TestTwoApplicationsOneMachine hosts the counting network and the
// B-tree on the SAME simulated machine and runtime, with their
// requesters interleaving: method registries, continuation registries,
// reply slots, and processor scheduling must all coexist. Both
// applications' invariants are checked at quiescence.
func TestTwoApplicationsOneMachine(t *testing.T) {
	scheme := core.Scheme{Mechanism: core.Migrate}
	// 24 balancer procs + 16 tree-node procs + 8 requesters.
	m := machine.New("two-apps", machine.Config{Seed: 31, Scheme: scheme}, 24+16+8)
	eng, rt := m.Eng, m.RT

	cn := countnet.Build(rt, nil, scheme, 8)
	p := btree.Params{Fanout: 10, NodeProcs: 16, Fill: 0.7}
	// Tree nodes land on procs [0,16) — overlapping the balancer procs,
	// which is fine: both services share those CPUs.
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(i+1) * 5
	}
	tr := btree.Build(rt, nil, nil, scheme, p, keys)

	const perThread = 12
	var values []uint64
	inserted := 0
	for i := 0; i < 8; i++ {
		i := i
		eng.Spawn("mixed", sim.Time(i*3), func(th *sim.Thread) {
			task := rt.NewTask(th, 40+i)
			for k := 0; k < perThread; k++ {
				if (i+k)%2 == 0 {
					values = append(values, cn.Traverse(task, (i+k)%8))
				} else {
					if tr.Insert(task, uint64(10000+i*100+k)) {
						inserted++
					}
					tr.Lookup(task, uint64(i*25+5))
				}
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	// Counting network: gap-free values.
	seen := make(map[uint64]bool)
	for _, v := range values {
		if v >= uint64(len(values)) || seen[v] {
			t.Fatalf("counting value %d duplicated or out of range (m=%d)", v, len(values))
		}
		seen[v] = true
	}
	// B-tree: structure intact, all inserts present.
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.KeyCount(); got != 200+inserted {
		t.Fatalf("key count = %d, want %d", got, 200+inserted)
	}
	if inserted == 0 {
		t.Fatal("no inserts happened; workload degenerate")
	}
}

// TestEverythingEverywhereAllAtOnce is the kitchen-sink stress run: a
// migrating B-tree workload, object pulls against dedicated cells, and
// shared-memory traffic, all under one engine, finishing with coherence
// and structure checks.
func TestEverythingEverywhereAllAtOnce(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		// The SM scheme makes the machine build the shared-memory
		// substrate next to the runtime; the tree picks its own scheme.
		m := machine.New("everything", machine.Config{Seed: seed, Scheme: core.Scheme{Mechanism: core.SharedMem}}, 20)
		eng, rt, shm := m.Eng, m.RT, m.Mem
		tbl := repl.NewTable(rt)

		p := btree.Params{Fanout: 6, NodeProcs: 12, Fill: 0.7}
		keys := make([]uint64, 60)
		for i := range keys {
			keys[i] = uint64(i+1) * 9
		}
		// Replicated-root migrating tree.
		tr := btree.Build(rt, nil, tbl, core.Scheme{Mechanism: core.Migrate, Replication: true}, p, keys)

		// Mobile cells for object pulls.
		type blob struct{ hits int }
		objs := make([]*blob, 6)
		gidlist := make([]gid.GID, 6)
		for i := range objs {
			objs[i] = &blob{}
			gidlist[i] = rt.Objects.New(i, objs[i])
		}

		// Shared-memory scratch lines.
		lines := make([]mem.Addr, 10)
		for i := range lines {
			lines[i] = shm.Alloc(i%12, 16)
		}

		rng := sim.NewPRNG(seed * 97)
		for w := 0; w < 6; w++ {
			w := w
			eng.Spawn("storm", sim.Time(w), func(th *sim.Thread) {
				task := rt.NewTask(th, 14+(w%6))
				for k := 0; k < 40; k++ {
					switch rng.Intn(4) {
					case 0:
						tr.Insert(task, 1+rng.Uint64n(4000))
					case 1:
						tr.Lookup(task, 1+rng.Uint64n(4000))
					case 2:
						g := gidlist[rng.Intn(len(gidlist))]
						for !task.IsLocal(g) {
							task.PullObject(g, 16)
						}
						rt.Objects.State(g).(*blob).hits++
					default:
						a := lines[rng.Intn(len(lines))]
						if rng.Intn(2) == 0 {
							shm.Read(th, task.Proc(), a, 16)
						} else {
							shm.Write(th, task.Proc(), a, 8)
						}
					}
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := shm.CheckCoherence(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		totalHits := 0
		for _, b := range objs {
			totalHits += b.hits
		}
		if totalHits == 0 {
			t.Fatalf("seed %d: no object pulls happened", seed)
		}
	}
}
