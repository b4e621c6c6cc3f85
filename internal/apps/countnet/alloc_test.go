package countnet

import (
	"testing"

	"compmig/internal/core"
	"compmig/internal/machine"
	"compmig/internal/sim"
)

// Allocation pins: a warm traversal's heap objects per operation on the
// paper's width-8 network, with the requester on its own processor as in
// RunExperiment. A record, activation or task that starts escaping to
// the heap per operation fails the pin.

func traverseAllocs(t *testing.T, mech core.Mechanism) float64 {
	t.Helper()
	scheme := core.Scheme{Mechanism: mech}
	m := machine.New("countnet", machine.Config{Seed: 1, Scheme: scheme}, 25)
	n := Build(m.RT, m.Mem, scheme, 8)
	var allocs float64
	m.Mach.Proc(24).Spawn("requester", 0, func(th *sim.Thread) {
		task := m.RT.NewTask(th, 24)
		wire := 0
		op := func() {
			n.Traverse(task, wire)
			wire = (wire + 3) % 8
		}
		for i := 0; i < 32; i++ {
			op() // fill the runtime's pools and the requester's cache
		}
		allocs = testing.AllocsPerRun(200, op)
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%v: %v allocations per traversal", mech, allocs)
	return allocs
}

func TestTraverseAllocsSM(t *testing.T) {
	// Shared memory walks the network in place: nothing per operation.
	if n := traverseAllocs(t, core.SharedMem); n > 0 {
		t.Errorf("SM traversal allocates %v objects, want at most 0", n)
	}
}

func TestTraverseAllocsCM(t *testing.T) {
	// Six migrations and the reply: a message and payload each, the
	// record each destination decodes into, and the entry record and the
	// result reply.
	if n := traverseAllocs(t, core.Migrate); n > 23 {
		t.Errorf("CM traversal allocates %v objects, want at most 23", n)
	}
}
