package btree

import (
	"testing"

	"compmig/internal/core"
	"compmig/internal/sim"
)

func checkDelete(t *testing.T, scheme core.Scheme) {
	t.Helper()
	p := DefaultParams()
	p.Fanout = 12
	p.NodeProcs = 6
	keys := seqKeys(300, 4) // 4, 8, ..., 1200
	e := buildEnv(t, scheme, p, 1, keys)
	var gone, stayed, phantom int
	e.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := e.rt.NewTask(th, p.NodeProcs)
		for i := 1; i <= 100; i++ {
			if e.tr.Delete(task, uint64(i)*8) { // delete every other key
				gone++
			}
			if e.tr.Delete(task, uint64(i)*8+1) { // never present
				phantom++
			}
		}
		for i := 1; i <= 100; i++ {
			if e.tr.Lookup(task, uint64(i*8)) {
				stayed++ // should all be gone
			}
		}
	})
	if err := e.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gone != 100 || phantom != 0 || stayed != 0 {
		t.Fatalf("scheme %s: gone=%d phantom=%d stayed=%d", scheme.Name(), gone, phantom, stayed)
	}
	if err := e.tr.CheckInvariants(); err != nil {
		t.Fatalf("scheme %s: %v", scheme.Name(), err)
	}
	if got := len(e.tr.AllKeys()); got != 200 {
		t.Fatalf("scheme %s: key count = %d, want 200", scheme.Name(), got)
	}
}

func TestDeleteCM(t *testing.T)  { checkDelete(t, core.Scheme{Mechanism: core.Migrate}) }
func TestDeleteRPC(t *testing.T) { checkDelete(t, core.Scheme{Mechanism: core.RPC}) }
func TestDeleteSM(t *testing.T)  { checkDelete(t, core.Scheme{Mechanism: core.SharedMem}) }
func TestDeleteOM(t *testing.T)  { checkDelete(t, core.Scheme{Mechanism: core.ObjMigrate}) }
func TestDeleteCMRepl(t *testing.T) {
	checkDelete(t, core.Scheme{Mechanism: core.Migrate, Replication: true})
}

// TestDeleteEmptiesLeaf drains a whole leaf: lazy deletion leaves the
// empty node in the chain and everything keeps working.
func TestDeleteEmptiesLeaf(t *testing.T) {
	p := DefaultParams()
	p.Fanout = 4
	p.NodeProcs = 3
	e := buildEnv(t, core.Scheme{Mechanism: core.Migrate}, p, 1, seqKeys(20, 2))
	e.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := e.rt.NewTask(th, 3)
		for i := 1; i <= 20; i++ {
			e.tr.Delete(task, uint64(i)*2)
		}
		// The tree is now empty; inserts into drained leaves still work.
		for i := 1; i <= 20; i++ {
			if !e.tr.Insert(task, uint64(i)*3) {
				t.Errorf("re-insert %d failed", i*3)
			}
		}
	})
	if err := e.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.tr.AllKeys()); got != 20 {
		t.Fatalf("key count = %d, want 20", got)
	}
}

// TestMixedInsertDeleteConcurrent interleaves all three operations from
// several threads and validates against the final key census.
func TestMixedInsertDeleteConcurrent(t *testing.T) {
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
					e.tr.Delete(task, base+k)
				}
				e.tr.Lookup(task, base+1)
			})
		}
		if err := e.eng.Run(); err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if err := e.tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		// 50 initial + 4 threads × (30 inserted − 15 deleted).
		if got := len(e.tr.AllKeys()); got != 50+4*15 {
			t.Fatalf("%s: key count = %d, want %d", scheme.Name(), got, 50+4*15)
		}
	}
}
