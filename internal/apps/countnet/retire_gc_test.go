//go:build go1.24

package countnet

import (
	"runtime"
	"testing"
	"weak"

	"compmig/internal/core"
	"compmig/internal/fault"
	"compmig/internal/machine"
	"compmig/internal/sim"
)

// TestRetiredRunIsCollected asserts that a retired machine pins nothing
// of its run: under each mechanism, and under RPC with a fault plan, a
// first machine runs and retires, a
// smaller second one revives its lane and retires in turn, and after a
// collection both machines' runtimes and engines are gone. The second
// run takes back only some of the first one's idle records, so a record
// left unscrubbed (a pooled arrival still naming its processor, an idle
// activation's child still holding its runtime, a pooled thread's
// scratch future still holding a value) keeps the first run alive; the
// second run's records stay retired, so a lane that keeps its engine,
// runtime or network bound keeps the second run alive.
func TestRetiredRunIsCollected(t *testing.T) {
	drops, err := fault.ParseSpec("drop=0.02,dup=0.01,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mech   core.Mechanism
		faults *fault.Spec
	}{{core.RPC, nil}, {core.Migrate, nil}, {core.SharedMem, nil}, {core.ObjMigrate, nil}, {core.RPC, drops}} {
		mech, scheme := c.mech, core.Scheme{Mechanism: c.mech}
		first, firstEng := runRetired(Config{Scheme: scheme, Faults: c.faults, Threads: 16})
		second, secondEng := runRetired(Config{Scheme: scheme, Faults: c.faults, Threads: 1, Measure: 20000})
		runtime.GC()
		for _, run := range []struct {
			name string
			rt   weak.Pointer[core.Runtime]
			eng  weak.Pointer[sim.Engine]
		}{{"first", first, firstEng}, {"second", second, secondEng}} {
			if run.rt.Value() != nil {
				t.Errorf("%v: the %s machine's runtime outlived its retirement", mech, run.name)
			}
			if run.eng.Value() != nil {
				t.Errorf("%v: the %s machine's engine outlived its retirement", mech, run.name)
			}
		}
	}
}

// runRetired is RunExperiment's run, returning weak pointers to its
// machine's runtime and engine.
func runRetired(cfg Config) (weak.Pointer[core.Runtime], weak.Pointer[sim.Engine]) {
	cfg = cfg.WithDefaults()
	m := machine.New("countnet", cfg.machineConfig(), cfg.Procs())
	n := Build(m.RT, m.Mem, cfg.Scheme, cfg.Width)
	numBal := n.NumBalancers()
	stop := cfg.Warmup + cfg.Measure
	for i := 0; i < cfg.Threads; i++ {
		proc := numBal + i
		m.Mach.Proc(proc).Spawn("requester", sim.Time(i), func(th *sim.Thread) {
			task := m.RT.NewTask(th, proc)
			for th.Now() < stop {
				n.Traverse(task, i%cfg.Width)
			}
		})
	}
	m.Run(&machine.Result{})
	return weak.Make(m.RT), weak.Make(m.Eng)
}
