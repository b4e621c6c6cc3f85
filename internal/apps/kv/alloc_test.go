package kv

import (
	"testing"

	"compmig/internal/core"
	"compmig/internal/machine"
	"compmig/internal/sim"
)

// Allocation pins: a warm point operation's heap objects, counted the
// way RunExperiment issues it — a fresh task per request on a front-end
// processor. A record, an activation or the request's task escaping to
// the heap fails the pin.

func accessAllocs(t *testing.T, mech core.Mechanism, put bool) float64 {
	t.Helper()
	scheme := core.Scheme{Mechanism: mech}
	p := Params{StoreProcs: 8, Touches: 3, IndexFanout: 16}
	front := p.StoreProcs
	m := machine.New("kv", machine.Config{Seed: 1, Scheme: scheme}, front+1)
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(10 * (i + 1))
	}
	st := Build(m.RT, m.Mem, scheme, p, keys)
	var allocs float64
	m.Mach.Proc(front).Spawn("kv.req", 0, func(th *sim.Thread) {
		key := uint64(0)
		op := func() {
			task := m.RT.NewTask(th, front)
			if put {
				st.Put(task, key)
			} else {
				st.Get(task, key)
			}
			key = (key + 7) % uint64(len(keys))
		}
		for i := 0; i < 64; i++ {
			op() // fill the runtime's pools and the front end's cache
		}
		allocs = testing.AllocsPerRun(200, op)
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%v put=%v: %v allocations per operation", mech, put, allocs)
	return allocs
}

func TestGetAllocsSM(t *testing.T) {
	if n := accessAllocs(t, core.SharedMem, false); n > 0 {
		t.Errorf("SM get allocates %v objects, want at most 0", n)
	}
}

func TestPutAllocsSM(t *testing.T) {
	if n := accessAllocs(t, core.SharedMem, true); n > 0 {
		t.Errorf("SM put allocates %v objects, want at most 0", n)
	}
}

func TestGetAllocsRPC(t *testing.T) {
	// The calls travel in pooled messages, and the access's argument
	// record lives in the pooled operation record.
	if n := accessAllocs(t, core.RPC, false); n > 0 {
		t.Errorf("RPC get allocates %v objects, want at most 0", n)
	}
}

func TestPutAllocsRPC(t *testing.T) {
	if n := accessAllocs(t, core.RPC, true); n > 0 {
		t.Errorf("RPC put allocates %v objects, want at most 0", n)
	}
}

func TestGetAllocsCM(t *testing.T) {
	if n := accessAllocs(t, core.Migrate, false); n > 0 {
		t.Errorf("CM get allocates %v objects, want at most 0", n)
	}
}

func TestPutAllocsCM(t *testing.T) {
	if n := accessAllocs(t, core.Migrate, true); n > 0 {
		t.Errorf("CM put allocates %v objects, want at most 0", n)
	}
}
