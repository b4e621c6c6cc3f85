package btree

import (
	"testing"

	"compmig/internal/core"
	"compmig/internal/sim"
)

// expectScan counts keys >= lo in the sorted population, capped at limit
// — the oracle every mechanism must match.
func expectScan(keys []uint64, lo uint64, limit int) int {
	n := 0
	for _, k := range keys {
		if k >= lo {
			n++
			if n == limit {
				break
			}
		}
	}
	return n
}

func runScan(t *testing.T, e *env, lo uint64, limit int) int {
	t.Helper()
	p := e.tr.p
	got := -1
	e.eng.Spawn("scan", 0, func(th *sim.Thread) {
		task := e.rt.NewTask(th, p.NodeProcs)
		got = e.tr.Scan(task, &core.Site{Mech: e.tr.lookup.Mech}, lo, limit)
	})
	if err := e.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestScanMatchesOracle checks every scan mechanism against the sorted
// population, across range starts that begin mid-leaf, at a stored key,
// between keys, and beyond the population.
func TestScanMatchesOracle(t *testing.T) {
	p := DefaultParams()
	p.NodeProcs = 8
	keys := seqKeys(2000, 3)
	cases := []struct {
		lo    uint64
		limit int
	}{
		{1, 10},       // before the first key
		{3, 1},        // exactly the first key
		{2999, 64},    // mid-population, between keys
		{3000, 64},    // mid-population, stored key
		{5994, 10},    // near the end: fewer than limit remain
		{6001, 5},     // beyond every key
		{0, 2000},     // the whole population
		{4000, 10000}, // limit exceeds the remainder
	}
	for _, scheme := range []core.Scheme{
		{Mechanism: core.RPC},
		{Mechanism: core.Migrate},
		{Mechanism: core.SharedMem},
	} {
		for _, c := range cases {
			e := buildEnv(t, scheme, p, 1, keys)
			got := runScan(t, e, c.lo, c.limit)
			want := expectScan(keys, c.lo, c.limit)
			if got != want {
				t.Errorf("%v scan(lo=%d, limit=%d) = %d, want %d",
					scheme.Mechanism, c.lo, c.limit, got, want)
			}
		}
	}
}

// TestScanAfterInserts checks scans see keys added through the normal
// insert path (splits included).
func TestScanAfterInserts(t *testing.T) {
	p := DefaultParams()
	p.Fanout = 10
	p.NodeProcs = 8
	e := buildEnv(t, core.Scheme{Mechanism: core.Migrate}, p, 1, seqKeys(100, 10))
	e.eng.Spawn("writer", 0, func(th *sim.Thread) {
		task := e.rt.NewTask(th, p.NodeProcs)
		for k := uint64(5); k < 1000; k += 10 {
			e.tr.Insert(task, k)
		}
	})
	if err := e.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Population is now {5,10,15,...,995,1000}: 200 keys.
	if got := runScan(t, e, 0, 1000); got != 200 {
		t.Fatalf("scan over grown tree = %d, want 200", got)
	}
	if got := runScan(t, e, 500, 20); got != 20 {
		t.Fatalf("bounded scan = %d, want 20", got)
	}
}

// TestScanPanicsOnObjMigrate pins the unsupported-mechanism contract.
func TestScanPanicsOnObjMigrate(t *testing.T) {
	p := DefaultParams()
	p.NodeProcs = 4
	e := buildEnv(t, core.Scheme{Mechanism: core.RPC}, p, 1, seqKeys(100, 3))
	e.eng.Spawn("scan", 0, func(th *sim.Thread) {
		task := e.rt.NewTask(th, p.NodeProcs)
		defer func() {
			if recover() == nil {
				t.Error("Scan under ObjMigrate did not panic")
			}
		}()
		e.tr.Scan(task, &core.Site{Mech: core.ObjMigrate}, 1, 10)
	})
	if err := e.eng.Run(); err != nil {
		t.Fatal(err)
	}
}
