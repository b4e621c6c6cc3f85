package countnet

import (
	"testing"

	"compmig/internal/core"
	"compmig/internal/mem"
	"compmig/internal/network"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

type testEnv struct {
	eng *sim.Engine
	col *stats.Collector
	rt  *core.Runtime
	shm *mem.System
	net *Network
}

func buildEnv(t *testing.T, scheme core.Scheme, threads int) *testEnv {
	t.Helper()
	eng := sim.NewEngine(5)
	model := scheme.Model()
	mach := sim.NewMachine(eng, 24+threads)
	col := stats.NewCollector()
	nw := network.New(mach, network.Crossbar{}, []*stats.Collector{col}, model.NetTransitBase, model.NetTransitPerHop)
	rt := core.New(mach, nw, []*stats.Collector{col}, model)
	var shm *mem.System
	if scheme.Mechanism == core.SharedMem {
		shm = mem.New(eng, mach, nw, col, mem.DefaultParams())
	}
	return &testEnv{eng: eng, col: col, rt: rt, shm: shm, net: Build(rt, shm, scheme, 8)}
}

// checkGapFree drives tokens from several threads and verifies the drawn
// values are exactly 0..m-1 at quiescence — for every mechanism.
func checkGapFree(t *testing.T, scheme core.Scheme) {
	t.Helper()
	const threads, perThread = 6, 20
	env := buildEnv(t, scheme, threads)
	var values []uint64
	for i := 0; i < threads; i++ {
		i := i
		env.eng.Spawn("req", sim.Time(i*13), func(th *sim.Thread) {
			task := env.rt.NewTask(th, 24+i)
			for k := 0; k < perThread; k++ {
				values = append(values, env.net.Traverse(task, (i+k)%8))
			}
		})
	}
	if err := env.eng.Run(); err != nil {
		t.Fatal(err)
	}
	m := threads * perThread
	if len(values) != m {
		t.Fatalf("%d values drawn, want %d", len(values), m)
	}
	seen := make([]bool, m)
	for _, v := range values {
		if v >= uint64(m) || seen[v] {
			t.Fatalf("scheme %s: value %d duplicated or out of range", scheme.Name(), v)
		}
		seen[v] = true
	}
}

func TestGapFreeRPC(t *testing.T)     { checkGapFree(t, core.Scheme{Mechanism: core.RPC}) }
func TestGapFreeMigrate(t *testing.T) { checkGapFree(t, core.Scheme{Mechanism: core.Migrate}) }
func TestGapFreeSharedMem(t *testing.T) {
	checkGapFree(t, core.Scheme{Mechanism: core.SharedMem})
}
func TestGapFreeMigrateHW(t *testing.T) {
	checkGapFree(t, core.Scheme{Mechanism: core.Migrate, HWMessaging: true})
}

// TestMessageCountsPerTraversal checks the §2.5 message model against the
// real network: RPC pays 2 messages per balancer access plus 2 for the
// counter; migration pays at most one per hop plus one return.
func TestMessageCountsPerTraversal(t *testing.T) {
	one := func(scheme core.Scheme) (msgs uint64) {
		env := buildEnv(t, scheme, 1)
		env.eng.Spawn("req", 0, func(th *sim.Thread) {
			task := env.rt.NewTask(th, 24)
			env.net.Traverse(task, 0)
		})
		if err := env.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return env.col.TotalMessages()
	}
	rpc := one(core.Scheme{Mechanism: core.RPC})
	cm := one(core.Scheme{Mechanism: core.Migrate})
	if rpc != 4*(6+1) {
		t.Errorf("RPC messages = %d, want 28 (two per access, two accesses per object)", rpc)
	}
	// CM: one migrate per stage (6, all balancers on distinct procs; the
	// counter shares the final balancer's proc) + one short-circuit reply.
	if cm != 7 {
		t.Errorf("CM messages = %d, want 7", cm)
	}
}

func TestBalancersAreVisited(t *testing.T) {
	env := buildEnv(t, core.Scheme{Mechanism: core.Migrate}, 2)
	const tokens = 16
	env.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := env.rt.NewTask(th, 24)
		for k := 0; k < tokens; k++ {
			env.net.Traverse(task, 0)
		}
	})
	if err := env.eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Stage-0 balancer on wire 0 saw all tokens; its stage peers saw none.
	bi := env.net.balForWire[0][0]
	if got := env.net.Visits(0, bi); got != tokens {
		t.Errorf("entry balancer visits = %d, want %d", got, tokens)
	}
	// By stage 3 (after the 8-wide merger begins) tokens have spread.
	spread := 0
	for i := 0; i < 4; i++ {
		if env.net.Visits(3, i) > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("tokens did not spread across the network (stage 3 spread=%d)", spread)
	}
}

func TestSharedMemGeneratesCoherenceOnly(t *testing.T) {
	env := buildEnv(t, core.Scheme{Mechanism: core.SharedMem}, 2)
	for i := 0; i < 2; i++ {
		i := i
		env.eng.Spawn("req", 0, func(th *sim.Thread) {
			task := env.rt.NewTask(th, 24+i)
			for k := 0; k < 10; k++ {
				env.net.Traverse(task, i)
			}
		})
	}
	if err := env.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if env.col.RPCCalls != 0 || env.col.MigrationsSent != 0 {
		t.Errorf("shared-memory run sent runtime messages: %d calls, %d migrations", env.col.RPCCalls, env.col.MigrationsSent)
	}
	if env.col.TotalMessages() == 0 {
		t.Error("shared-memory run produced no coherence traffic")
	}
	// Balancers are write-shared: with two threads ping-ponging lines the
	// hit rate must be poor (the paper measured ~12%).
	if hr := env.col.HitRate(); hr > 0.5 {
		t.Errorf("hit rate = %.2f, expected low for write-shared balancers", hr)
	}
}

func TestExperimentRunsAllSchemes(t *testing.T) {
	for _, scheme := range []core.Scheme{
		{Mechanism: core.RPC},
		{Mechanism: core.RPC, HWMessaging: true},
		{Mechanism: core.Migrate},
		{Mechanism: core.Migrate, HWMessaging: true},
		{Mechanism: core.SharedMem},
	} {
		res := RunExperiment(Config{
			Threads: 8, Think: 0, Scheme: scheme,
			Warmup: 5000, Measure: 30000,
		})
		if res.Ops == 0 {
			t.Errorf("%s: no operations completed", scheme.Name())
		}
		if res.Throughput <= 0 {
			t.Errorf("%s: throughput = %v", scheme.Name(), res.Throughput)
		}
		if scheme.Mechanism != core.SharedMem && res.Messages == 0 {
			t.Errorf("%s: no messages", scheme.Name())
		}
	}
}

// TestFigure2Ordering checks the headline shape of Figure 2 at high
// contention: CM beats RPC, hardware support helps each, and SM is
// competitive with CM w/HW.
func TestFigure2Ordering(t *testing.T) {
	run := func(scheme core.Scheme) float64 {
		return RunExperiment(Config{
			Threads: 16, Think: 0, Scheme: scheme,
			Warmup: 10000, Measure: 60000,
		}).Throughput
	}
	rpc := run(core.Scheme{Mechanism: core.RPC})
	rpcHW := run(core.Scheme{Mechanism: core.RPC, HWMessaging: true})
	cm := run(core.Scheme{Mechanism: core.Migrate})
	cmHW := run(core.Scheme{Mechanism: core.Migrate, HWMessaging: true})

	if cm <= rpc {
		t.Errorf("CM (%.3f) not above RPC (%.3f)", cm, rpc)
	}
	if cmHW <= cm {
		t.Errorf("CM w/HW (%.3f) not above CM (%.3f)", cmHW, cm)
	}
	if rpcHW <= rpc {
		t.Errorf("RPC w/HW (%.3f) not above RPC (%.3f)", rpcHW, rpc)
	}
}

// TestFigure3BandwidthOrdering checks the headline shape of Figure 3: SM
// consumes far more bandwidth than RPC, and CM consumes the least.
func TestFigure3BandwidthOrdering(t *testing.T) {
	run := func(scheme core.Scheme) float64 {
		return RunExperiment(Config{
			Threads: 16, Think: 0, Scheme: scheme,
			Warmup: 10000, Measure: 60000,
		}).Bandwidth
	}
	sm := run(core.Scheme{Mechanism: core.SharedMem})
	rpc := run(core.Scheme{Mechanism: core.RPC})
	cm := run(core.Scheme{Mechanism: core.Migrate})
	if cm >= rpc {
		t.Errorf("CM bandwidth (%.2f) not below RPC (%.2f)", cm, rpc)
	}
	if sm <= cm {
		t.Errorf("SM bandwidth (%.2f) not above CM (%.2f)", sm, cm)
	}
}

func TestDeterministicExperiment(t *testing.T) {
	cfg := Config{Threads: 8, Scheme: core.Scheme{Mechanism: core.Migrate},
		Warmup: 5000, Measure: 20000, Seed: 9}
	a := RunExperiment(cfg)
	b := RunExperiment(cfg)
	if a != b {
		t.Fatalf("experiment not reproducible:\n%+v\n%+v", a, b)
	}
}

func TestGapFreeObjMigrate(t *testing.T) {
	checkGapFree(t, core.Scheme{Mechanism: core.ObjMigrate})
}

// TestObjMigratePingPongsUnderContention shows why the paper's §2.2
// warns about data migration for write-shared data: concurrent
// traversals keep stealing the balancers from each other.
func TestObjMigratePingPongsUnderContention(t *testing.T) {
	env := buildEnv(t, core.Scheme{Mechanism: core.ObjMigrate}, 4)
	for i := 0; i < 4; i++ {
		i := i
		env.eng.Spawn("req", 0, func(th *sim.Thread) {
			task := env.rt.NewTask(th, 24+i)
			for k := 0; k < 10; k++ {
				env.net.Traverse(task, i%8)
			}
		})
	}
	if err := env.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if env.rt.Objects.Moves < 40 {
		t.Errorf("object moves = %d; expected heavy ping-pong", env.rt.Objects.Moves)
	}
	// Single-thread traversal after quiescence: everything it pulls
	// stays local for the rest of its walk only if wires repeat; with
	// objects scattered by the contention phase, forwards happened.
	if env.col.Forwards == 0 {
		t.Error("no forwarding despite migrating objects")
	}
}

// TestObjMigrateWorseThanCMUnderContention: whole-object migration of
// write-shared balancers loses to computation migration — the paper's
// §2 comparison in action.
func TestObjMigrateWorseThanCMUnderContention(t *testing.T) {
	run := func(scheme core.Scheme) float64 {
		return RunExperiment(Config{
			Threads: 16, Think: 0, Scheme: scheme,
			Warmup: 10000, Measure: 60000,
		}).Throughput
	}
	om := run(core.Scheme{Mechanism: core.ObjMigrate})
	cm := run(core.Scheme{Mechanism: core.Migrate})
	if om >= cm {
		t.Errorf("object migration (%.3f) not below computation migration (%.3f) on write-shared balancers", om, cm)
	}
}

func TestLayoutAccessors(t *testing.T) {
	env := buildEnv(t, core.Scheme{Mechanism: core.Migrate}, 1)
	if env.net.NumBalancers() != 24 {
		t.Errorf("balancers = %d", env.net.NumBalancers())
	}
	if len(env.net.stages) != 6 {
		t.Errorf("stages = %d", len(env.net.stages))
	}
}

func TestMeshExperimentRuns(t *testing.T) {
	r := RunExperiment(Config{
		Threads: 4, Scheme: core.Scheme{Mechanism: core.Migrate},
		Mesh: true, Warmup: 3000, Measure: 15000,
	})
	if r.Ops == 0 {
		t.Fatal("mesh run completed no ops")
	}
}
