package countnet

import (
	"testing"

	"compmig/internal/core"
	"compmig/internal/fault"
	"compmig/internal/machine"
	"compmig/internal/sim"
)

// Allocation pins: a warm traversal's heap objects per operation on the
// paper's width-8 network, with the requester on its own processor as in
// RunExperiment. A record, activation or task that starts escaping to
// the heap per operation fails the pin. faults, when not empty, is a
// fault plan (fault.ParseSpec) the run is placed under.

func traverseAllocs(t *testing.T, mech core.Mechanism, faults string) float64 {
	t.Helper()
	scheme := core.Scheme{Mechanism: mech}
	cfg := machine.Config{Seed: 1, Scheme: scheme}
	if faults != "" {
		spec, err := fault.ParseSpec(faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = spec
	}
	m := machine.New("countnet", cfg, 25)
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
	label := mech.String()
	if faults != "" {
		label += " under " + faults
	}
	t.Logf("%s: %v allocations per traversal", label, allocs)
	return allocs
}

func TestTraverseAllocsSM(t *testing.T) {
	// Shared memory walks the network in place: nothing per operation.
	if n := traverseAllocs(t, core.SharedMem, ""); n > 0 {
		t.Errorf("SM traversal allocates %v objects, want at most 0", n)
	}
}

func TestTraverseAllocsCM(t *testing.T) {
	// The migrations and the reply travel in pooled messages and each
	// destination decodes into a pooled record: nothing per operation.
	if n := traverseAllocs(t, core.Migrate, ""); n > 0 {
		t.Errorf("CM traversal allocates %v objects, want at most 0", n)
	}
}

func TestTraverseAllocsRPC(t *testing.T) {
	// The calls and replies travel in pooled messages, and each visit
	// decodes its reply into the pooled traversal record.
	if n := traverseAllocs(t, core.RPC, ""); n > 0 {
		t.Errorf("RPC traversal allocates %v objects, want at most 0", n)
	}
}

// faultPlan loses and duplicates a few messages: every message then
// travels through the reliability layer, with its acks, retransmissions
// and suppressed duplicates, each in a pooled in-flight record.
const faultPlan = "drop=0.02,dup=0.01"

func TestFaultedTraverseAllocsCM(t *testing.T) {
	if n := traverseAllocs(t, core.Migrate, faultPlan); n > 0 {
		t.Errorf("faulted CM traversal allocates %v objects, want at most 0", n)
	}
}

func TestFaultedTraverseAllocsRPC(t *testing.T) {
	if n := traverseAllocs(t, core.RPC, faultPlan); n > 0 {
		t.Errorf("faulted RPC traversal allocates %v objects, want at most 0", n)
	}
}
