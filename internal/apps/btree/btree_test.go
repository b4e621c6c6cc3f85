package btree

import (
	"sort"
	"testing"
	"testing/quick"

	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/mem"
	"compmig/internal/network"
	"compmig/internal/repl"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

type env struct {
	eng *sim.Engine
	col *stats.Collector
	rt  *core.Runtime
	tr  *Tree
}

func buildEnv(t *testing.T, scheme core.Scheme, p Params, threads int, keys []uint64) *env {
	t.Helper()
	eng := sim.NewEngine(23)
	model := scheme.Model()
	mach := sim.NewMachine(eng, p.NodeProcs+threads)
	col := stats.NewCollector()
	nw := network.New(eng, network.Crossbar{}, col, model.NetTransitBase, model.NetTransitPerHop)
	rt := core.New(eng, mach, nw, col, model)
	var shm *mem.System
	if scheme.Mechanism == core.SharedMem {
		shm = mem.New(eng, mach, nw, col, mem.DefaultParams())
	}
	var tbl *repl.Table
	if scheme.Replication {
		tbl = repl.NewTable(rt)
	}
	return &env{eng: eng, col: col, rt: rt, tr: Build(rt, shm, tbl, scheme, p, keys)}
}

func seqKeys(n int, stride uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i+1) * stride
	}
	return out
}

// --- Host-level structure tests -------------------------------------

func TestBulkLoadShape(t *testing.T) {
	e := buildEnv(t, core.Scheme{Mechanism: core.RPC}, DefaultParams(), 1,
		seqKeys(10000, 3))
	if err := e.tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.tr.Height() != 3 {
		t.Errorf("height = %d, want 3 for 10k keys at fanout 100", e.tr.Height())
	}
	// 10000 keys at fill 0.6 -> 167 leaves -> 3 interior -> root with 3
	// children, matching the paper's description.
	if got := e.tr.RootChildren(); got != 3 {
		t.Errorf("root children = %d, want 3 (the paper's root bottleneck setup)", got)
	}
	if got := len(e.tr.AllKeys()); got != 10000 {
		t.Errorf("key count = %d", got)
	}
}

func TestBulkLoadSmallFanout(t *testing.T) {
	p := DefaultParams()
	p.Fanout = 10
	e := buildEnv(t, core.Scheme{Mechanism: core.RPC}, p, 1, seqKeys(10000, 3))
	if err := e.tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.tr.Height() < 5 {
		t.Errorf("height = %d, want a deeper tree at fanout 10", e.tr.Height())
	}
	if got := e.tr.RootChildren(); got < 2 || got > 6 {
		t.Errorf("root children = %d, want a few (paper: 4)", got)
	}
}

func TestBulkLoadTiny(t *testing.T) {
	e := buildEnv(t, core.Scheme{Mechanism: core.RPC}, DefaultParams(), 1, seqKeys(5, 10))
	if err := e.tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.tr.Height() != 1 {
		t.Errorf("5 keys should fit in a single leaf root, height=%d", e.tr.Height())
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	e := buildEnv(t, core.Scheme{Mechanism: core.RPC}, DefaultParams(), 1, nil)
	if err := e.tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- Functional tests across mechanisms ------------------------------

func checkLookups(t *testing.T, scheme core.Scheme) {
	t.Helper()
	keys := seqKeys(500, 7) // 7, 14, ..., 3500
	p := DefaultParams()
	p.Fanout = 20
	p.NodeProcs = 8
	e := buildEnv(t, scheme, p, 1, keys)
	hits, misses := 0, 0
	e.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := e.rt.NewTask(th, p.NodeProcs)
		for i := 1; i <= 100; i++ {
			if e.tr.Lookup(task, uint64(i)*7) {
				hits++
			}
			if !e.tr.Lookup(task, uint64(i)*7+1) {
				misses++
			}
		}
	})
	if err := e.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 100 || misses != 100 {
		t.Fatalf("scheme %s: hits=%d misses=%d, want 100/100", scheme.Name(), hits, misses)
	}
}

func TestLookupRPC(t *testing.T) { checkLookups(t, core.Scheme{Mechanism: core.RPC}) }
func TestLookupCM(t *testing.T)  { checkLookups(t, core.Scheme{Mechanism: core.Migrate}) }
func TestLookupSM(t *testing.T)  { checkLookups(t, core.Scheme{Mechanism: core.SharedMem}) }
func TestLookupCMRepl(t *testing.T) {
	checkLookups(t, core.Scheme{Mechanism: core.Migrate, Replication: true})
}
func TestLookupRPCRepl(t *testing.T) {
	checkLookups(t, core.Scheme{Mechanism: core.RPC, Replication: true})
}

func checkInsertLookup(t *testing.T, scheme core.Scheme) {
	t.Helper()
	p := DefaultParams()
	p.Fanout = 8 // force plenty of splits
	p.NodeProcs = 6
	e := buildEnv(t, scheme, p, 4, seqKeys(40, 5))
	inserted := make(map[uint64]bool)
	rng := sim.NewPRNG(77)
	var all [][]uint64
	for i := 0; i < 4; i++ {
		mine := make([]uint64, 60)
		for k := range mine {
			mine[k] = 1 + rng.Uint64n(100000)
		}
		all = append(all, mine)
		for _, k := range mine {
			inserted[k] = true
		}
	}
	for i := 0; i < 4; i++ {
		i := i
		e.eng.Spawn("writer", sim.Time(i*11), func(th *sim.Thread) {
			task := e.rt.NewTask(th, p.NodeProcs+i)
			for _, k := range all[i] {
				e.tr.Insert(task, k)
			}
		})
	}
	if err := e.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.tr.CheckInvariants(); err != nil {
		t.Fatalf("scheme %s: %v", scheme.Name(), err)
	}
	// Every pre-loaded and inserted key must now be present.
	want := map[uint64]bool{}
	for _, k := range seqKeys(40, 5) {
		want[k] = true
	}
	for k := range inserted {
		want[k] = true
	}
	got := e.tr.AllKeys()
	if len(got) != len(want) {
		t.Fatalf("scheme %s: key count = %d, want %d", scheme.Name(), len(got), len(want))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("scheme %s: leaf chain out of order", scheme.Name())
	}
	for _, k := range got {
		if !want[k] {
			t.Fatalf("scheme %s: phantom key %d", scheme.Name(), k)
		}
	}
}

func TestInsertRPC(t *testing.T) { checkInsertLookup(t, core.Scheme{Mechanism: core.RPC}) }
func TestInsertCM(t *testing.T)  { checkInsertLookup(t, core.Scheme{Mechanism: core.Migrate}) }
func TestInsertSM(t *testing.T)  { checkInsertLookup(t, core.Scheme{Mechanism: core.SharedMem}) }
func TestInsertCMRepl(t *testing.T) {
	checkInsertLookup(t, core.Scheme{Mechanism: core.Migrate, Replication: true})
}
func TestInsertRPCRepl(t *testing.T) {
	checkInsertLookup(t, core.Scheme{Mechanism: core.RPC, Replication: true})
}

// TestRootSplitGrowsTree drives enough inserts through a tiny tree to
// force repeated root splits under concurrency.
func TestRootSplitGrowsTree(t *testing.T) {
	for _, scheme := range []core.Scheme{
		{Mechanism: core.Migrate},
		{Mechanism: core.RPC},
		{Mechanism: core.SharedMem},
		{Mechanism: core.Migrate, Replication: true},
		{Mechanism: core.ObjMigrate},
	} {
		p := DefaultParams()
		p.Fanout = 4
		p.NodeProcs = 4
		e := buildEnv(t, scheme, p, 3, seqKeys(3, 2))
		h0 := e.tr.Height()
		for i := 0; i < 3; i++ {
			i := i
			e.eng.Spawn("writer", 0, func(th *sim.Thread) {
				task := e.rt.NewTask(th, p.NodeProcs+i)
				for k := 0; k < 80; k++ {
					e.tr.Insert(task, uint64(1000+i*1000+k*3))
				}
			})
		}
		if err := e.eng.Run(); err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if err := e.tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if e.tr.Height() <= h0 {
			t.Errorf("%s: tree did not grow (height %d -> %d)", scheme.Name(), h0, e.tr.Height())
		}
		if got := len(e.tr.AllKeys()); got != 3+3*80 {
			t.Errorf("%s: key count = %d, want %d", scheme.Name(), got, 3+3*80)
		}
	}
}

// TestDuplicateInsert checks inserts report newness correctly.
func TestDuplicateInsert(t *testing.T) {
	p := DefaultParams()
	p.NodeProcs = 4
	e := buildEnv(t, core.Scheme{Mechanism: core.Migrate}, p, 1, seqKeys(100, 3))
	var first, second bool
	e.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := e.rt.NewTask(th, 4)
		first = e.tr.Insert(task, 1000001)
		second = e.tr.Insert(task, 1000001)
	})
	if err := e.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !first || second {
		t.Fatalf("insert newness: first=%v second=%v", first, second)
	}
}

// TestCMUsesFewerMessagesThanRPC verifies the locality win on a descent.
func TestCMUsesFewerMessagesThanRPC(t *testing.T) {
	keys := seqKeys(2000, 3)
	run := func(scheme core.Scheme) uint64 {
		p := DefaultParams()
		p.Fanout = 10 // deep tree -> long descents
		e := buildEnv(t, scheme, p, 1, keys)
		e.eng.Spawn("req", 0, func(th *sim.Thread) {
			task := e.rt.NewTask(th, p.NodeProcs)
			for i := 0; i < 20; i++ {
				e.tr.Lookup(task, uint64(i*291+7))
			}
		})
		if err := e.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return e.col.TotalMessages()
	}
	rpc := run(core.Scheme{Mechanism: core.RPC})
	cm := run(core.Scheme{Mechanism: core.Migrate})
	if cm >= rpc {
		t.Errorf("CM messages (%d) not below RPC (%d)", cm, rpc)
	}
	// The model says roughly half: one message per hop plus one return,
	// versus two per hop.
	if float64(cm) > 0.75*float64(rpc) {
		t.Errorf("CM/RPC message ratio = %.2f, want near 0.5", float64(cm)/float64(rpc))
	}
}

// TestReplicationRemovesRootTraffic confirms that with a replicated root,
// descents skip the root processor entirely.
func TestReplicationRemovesRootTraffic(t *testing.T) {
	keys := seqKeys(10000, 3)
	run := func(scheme core.Scheme) uint64 {
		e := buildEnv(t, scheme, DefaultParams(), 1, keys)
		e.eng.Spawn("req", 0, func(th *sim.Thread) {
			task := e.rt.NewTask(th, DefaultParams().NodeProcs)
			for i := 0; i < 30; i++ {
				e.tr.Lookup(task, uint64(i*997+1))
			}
		})
		if err := e.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return e.col.TotalMessages()
	}
	plain := run(core.Scheme{Mechanism: core.Migrate})
	repl := run(core.Scheme{Mechanism: core.Migrate, Replication: true})
	if repl >= plain {
		t.Errorf("replicated root should cut messages: %d vs %d", repl, plain)
	}
}

func TestGenKeysDistinctSorted(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewPRNG(seed)
		keys := GenKeys(rng, 500, 10000)
		if len(keys) != 500 {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyConcurrentInsertsPreserveTree runs randomized concurrent
// workloads under each mechanism and checks full structural invariants
// and key-set correctness at quiescence.
func TestPropertyConcurrentInsertsPreserveTree(t *testing.T) {
	for _, scheme := range []core.Scheme{
		{Mechanism: core.RPC},
		{Mechanism: core.Migrate},
		{Mechanism: core.SharedMem},
		{Mechanism: core.ObjMigrate},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			p := DefaultParams()
			p.Fanout = 6
			p.NodeProcs = 5
			rng := sim.NewPRNG(seed)
			initial := GenKeys(rng.Fork(), 30, 5000)
			e := buildEnv(t, scheme, p, 4, initial)
			want := map[uint64]bool{}
			for _, k := range initial {
				want[k] = true
			}
			type batch struct{ keys []uint64 }
			batches := make([]batch, 4)
			for i := range batches {
				for k := 0; k < 50; k++ {
					key := 1 + rng.Uint64n(5000)
					batches[i].keys = append(batches[i].keys, key)
					want[key] = true
				}
			}
			for i := 0; i < 4; i++ {
				i := i
				e.eng.Spawn("w", sim.Time(i), func(th *sim.Thread) {
					task := e.rt.NewTask(th, p.NodeProcs+i)
					for _, k := range batches[i].keys {
						e.tr.Insert(task, k)
					}
				})
			}
			if err := e.eng.Run(); err != nil {
				t.Fatalf("%s seed %d: %v", scheme.Name(), seed, err)
			}
			if err := e.tr.CheckInvariants(); err != nil {
				t.Fatalf("%s seed %d: %v", scheme.Name(), seed, err)
			}
			got := e.tr.AllKeys()
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d keys, want %d", scheme.Name(), seed, len(got), len(want))
			}
		}
	}
}

func TestStatePrivacy(t *testing.T) {
	// Sanity: node states live at their GID's home.
	e := buildEnv(t, core.Scheme{Mechanism: core.Migrate}, DefaultParams(), 1, seqKeys(1000, 3))
	if e.tr.Root().Home() >= DefaultParams().NodeProcs {
		t.Error("root not on a node processor")
	}
	_ = gid.Nil
}

func TestLookupOM(t *testing.T) { checkLookups(t, core.Scheme{Mechanism: core.ObjMigrate}) }
func TestInsertOM(t *testing.T) { checkInsertLookup(t, core.Scheme{Mechanism: core.ObjMigrate}) }

// TestOMPullsNodesAround verifies Emerald-style behaviour on the tree:
// concurrent requesters keep stealing the upper-level nodes.
func TestOMPullsNodesAround(t *testing.T) {
	r := RunExperiment(Config{
		Scheme: core.Scheme{Mechanism: core.ObjMigrate},
		Think:  0, Threads: 8, Warmup: 5000, Measure: 30000,
	})
	if r.Ops == 0 {
		t.Fatal("no operations completed")
	}
	cm := RunExperiment(Config{
		Scheme: core.Scheme{Mechanism: core.Migrate},
		Think:  0, Threads: 8, Warmup: 5000, Measure: 30000,
	})
	if r.Throughput >= cm.Throughput {
		t.Errorf("object migration (%.3f) not below computation migration (%.3f)",
			r.Throughput, cm.Throughput)
	}
}

// TestOMFullWindowCompletes is the object-migration livelock regression:
// at seed 2 a fetch forwarded to a node's new home used to ship the node
// onward before it arrived, so its puller woke to find it gone and kept
// re-pulling the root long past the stop time.
func TestOMFullWindowCompletes(t *testing.T) {
	r := RunExperiment(Config{
		Scheme: core.Scheme{Mechanism: core.ObjMigrate},
		Seed:   2, Warmup: 20000, Measure: 300000,
	})
	if r.Ops == 0 {
		t.Fatal("no operations completed")
	}
}

// TestConcurrentRootGrowth drives 16 concurrent inserters into a
// fanout-2 tree, whose root grows many levels while splits are still
// travelling up: an insert whose growRoot lost can find the root already
// two levels higher, and neighbouring splits at one level can reach the
// parent in either order. The tree must stay a valid B-link tree holding
// exactly the inserted keys under every mechanism.
func TestConcurrentRootGrowth(t *testing.T) {
	const threads, perThread = 16, 40
	for _, mech := range []core.Mechanism{core.Migrate, core.RPC, core.SharedMem, core.ObjMigrate} {
		for seed := uint64(1); seed <= 3; seed++ {
			p := Params{Fanout: 2, NodeProcs: 8, Fill: 0.7}
			rng := sim.NewPRNG(seed)
			initial := GenKeys(rng.Fork(), 20, 100000)
			e := buildEnv(t, core.Scheme{Mechanism: mech}, p, threads, initial)
			inserted := map[uint64]struct{}{}
			for i := 0; i < threads; i++ {
				keys := make([]uint64, perThread)
				for k := range keys {
					keys[k] = 1 + rng.Uint64n(100000)
				}
				e.eng.Spawn("w", sim.Time(i), func(th *sim.Thread) {
					task := e.rt.NewTask(th, p.NodeProcs+i)
					for _, k := range keys {
						if e.tr.Insert(task, k) {
							inserted[k] = struct{}{}
						}
					}
				})
			}
			if err := e.eng.Run(); err != nil {
				t.Fatalf("%v seed %d: %v", mech, seed, err)
			}
			if err := e.tr.CheckInvariants(); err != nil {
				t.Fatalf("%v seed %d: %v", mech, seed, err)
			}
			if err := e.tr.VerifyKeySet(initial, inserted); err != nil {
				t.Fatalf("%v seed %d: %v", mech, seed, err)
			}
		}
	}
}

// TestMixedInsertLookupConcurrent interleaves inserts and lookups from
// several threads under every mechanism and validates against the final
// key census.
func TestMixedInsertLookupConcurrent(t *testing.T) {
	for _, scheme := range []core.Scheme{
		{Mechanism: core.Migrate},
		{Mechanism: core.RPC},
		{Mechanism: core.SharedMem},
		{Mechanism: core.ObjMigrate},
	} {
		p := DefaultParams()
		p.Fanout = 6
		p.NodeProcs = 5
		e := buildEnv(t, scheme, p, 4, seqKeys(50, 10))
		missed := 0
		for i := 0; i < 4; i++ {
			i := i
			e.eng.Spawn("mix", sim.Time(i*5), func(th *sim.Thread) {
				task := e.rt.NewTask(th, p.NodeProcs+i)
				// Each thread owns a disjoint key range so the final
				// census is deterministic despite interleaving.
				base := uint64(100000 * (i + 1))
				for k := uint64(0); k < 30; k++ {
					e.tr.Insert(task, base+k)
				}
				for k := uint64(0); k < 30; k += 2 {
					if !e.tr.Lookup(task, base+k) {
						missed++
					}
				}
				if e.tr.Lookup(task, base+30) {
					missed++ // never inserted
				}
			})
		}
		if err := e.eng.Run(); err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if missed != 0 {
			t.Fatalf("%s: %d lookups disagreed with the thread's own inserts", scheme.Name(), missed)
		}
		if err := e.tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		// 50 initial + 4 threads × 30 inserted.
		if got := len(e.tr.AllKeys()); got != 50+4*30 {
			t.Fatalf("%s: key count = %d, want %d", scheme.Name(), got, 50+4*30)
		}
	}
}
