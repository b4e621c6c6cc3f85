package btree

import (
	"sort"
	"strings"
	"testing"

	"compmig/internal/core"
)

// VerifyKeySet must accept a tree that holds exactly the claimed keys
// and reject every way the claimed and stored sets can disagree.
func TestVerifyKeySet(t *testing.T) {
	initial := seqKeys(500, 3) // 3, 6, ..., 1500
	inserted := map[uint64]struct{}{50: {}, 100: {}, 1501: {}}
	all := append(append([]uint64{}, initial...), 50, 100, 1501)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	e := buildEnv(t, core.Scheme{Mechanism: core.RPC}, DefaultParams(), 1, all)

	if err := e.tr.VerifyKeySet(initial, inserted); err != nil {
		t.Errorf("exact key set rejected: %v", err)
	}

	cases := []struct {
		name     string
		initial  []uint64
		inserted map[uint64]struct{}
		wantSub  string
	}{
		{"lost initial key", append(append([]uint64{}, initial...), 2000), inserted, "initial key 2000 lost"},
		{"lost inserted key", initial, map[uint64]struct{}{50: {}, 100: {}, 1501: {}, 4000: {}}, "inserted key 4000 lost"},
		{"phantom key", initial, map[uint64]struct{}{50: {}, 100: {}}, "phantom insert?"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := e.tr.VerifyKeySet(c.initial, c.inserted)
			if err == nil {
				t.Fatal("disagreement not detected")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q lacks %q", err, c.wantSub)
			}
		})
	}
}

// Re-claiming an initially loaded key as an insert must not double-count
// it in the expected size.
func TestVerifyKeySetInsertOfExistingKey(t *testing.T) {
	initial := seqKeys(100, 1)
	e := buildEnv(t, core.Scheme{Mechanism: core.RPC}, DefaultParams(), 1, initial)
	if err := e.tr.VerifyKeySet(initial, map[uint64]struct{}{7: {}}); err != nil {
		t.Errorf("re-inserted existing key rejected: %v", err)
	}
}

// VerifyKeySet allocates only the key list AllKeys returns: membership
// is a binary search of that list, not a set built from it.
func TestVerifyKeySetAllocs(t *testing.T) {
	initial := seqKeys(2000, 2)
	e := buildEnv(t, core.Scheme{Mechanism: core.RPC}, DefaultParams(), 1, initial)
	inserted := map[uint64]struct{}{4: {}, 8: {}}
	if n := testing.AllocsPerRun(10, func() {
		if err := e.tr.VerifyKeySet(initial, inserted); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("VerifyKeySet made %v allocations, want 1", n)
	}
}
