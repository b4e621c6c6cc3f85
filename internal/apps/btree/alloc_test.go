package btree

import (
	"testing"

	"compmig/internal/core"
	"compmig/internal/machine"
	"compmig/internal/sim"
)

// Allocation pins: a warm lookup's heap objects per operation on a
// three-level tree, with the requester on its own processor as in
// RunExperiment.

func lookupAllocs(t *testing.T, mech core.Mechanism) float64 {
	t.Helper()
	scheme := core.Scheme{Mechanism: mech}
	p := Params{Fanout: 10, NodeProcs: 8, Fill: 0.7}
	m := machine.New("btree", machine.Config{Seed: 1, Scheme: scheme}, p.NodeProcs+1)
	tr := Build(m.RT, m.Mem, nil, scheme, p, seqKeys(200, 3))
	var allocs float64
	m.Mach.Proc(p.NodeProcs).Spawn("requester", 0, func(th *sim.Thread) {
		task := m.RT.NewTask(th, p.NodeProcs)
		key := uint64(1)
		op := func() {
			tr.Lookup(task, key)
			key = (key + 37) % 600
		}
		for i := 0; i < 32; i++ {
			op() // fill the runtime's pools and the requester's cache
		}
		allocs = testing.AllocsPerRun(200, op)
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%v: %v allocations per lookup (height %d)", mech, allocs, tr.Height())
	return allocs
}

func TestLookupAllocsSM(t *testing.T) {
	if n := lookupAllocs(t, core.SharedMem); n > 2 {
		t.Errorf("SM lookup allocates %v objects, want at most 2", n)
	}
}

func TestLookupAllocsRPC(t *testing.T) {
	// The steps travel in pooled messages, and each node visit's
	// argument and reply records live in the pooled operation record.
	if n := lookupAllocs(t, core.RPC); n > 0 {
		t.Errorf("RPC lookup allocates %v objects, want at most 0", n)
	}
}

func TestLookupAllocsCM(t *testing.T) {
	if n := lookupAllocs(t, core.Migrate); n > 0 {
		t.Errorf("CM lookup allocates %v objects, want at most 0", n)
	}
}
