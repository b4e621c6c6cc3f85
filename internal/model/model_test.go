package model

import (
	"testing"
	"testing/quick"
)

func TestFigure1Counts(t *testing.T) {
	// Figure 1's drawn scenario: n accesses to each of m data items.
	cases := []struct {
		mech Mechanism
		n, m int
		want int
	}{
		{RPC, 1, 1, 2},
		{RPC, 3, 4, 24},
		{DataMigration, 3, 4, 8},
		{ComputationMigration, 3, 4, 5},
		{ComputationMigration, 1, 1, 2},
		{RPC, 5, 0, 0},
		{DataMigration, 0, 3, 6},
		{ComputationMigration, 0, 3, 4},
	}
	for _, c := range cases {
		if got := Messages(c.mech, c.n, c.m); got != c.want {
			t.Errorf("Messages(%v, n=%d, m=%d) = %d, want %d", c.mech, c.n, c.m, got, c.want)
		}
	}
}

// TestOrderingForRepeatedAccess encodes §2.5's claim: for a series of
// accesses, both migration forms beat RPC, and computation migration
// sends the fewest messages of all.
func TestOrderingForRepeatedAccess(t *testing.T) {
	if err := quick.Check(func(n8, m8 uint8) bool {
		n := int(n8%20) + 1
		m := int(m8%20) + 1
		rpc := Messages(RPC, n, m)
		dm := Messages(DataMigration, n, m)
		cm := Messages(ComputationMigration, n, m)
		if cm > dm {
			return false // CM never worse than data migration in the model
		}
		if n >= 2 && (dm >= rpc || cm >= rpc) {
			return false // for repeated access both migrations beat RPC
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSinglesAccessRPCTies(t *testing.T) {
	// With a single access per datum, RPC and data migration tie (2m),
	// and computation migration wins for m > 1 via the short-circuit.
	for m := 1; m <= 10; m++ {
		if Messages(RPC, 1, m) != Messages(DataMigration, 1, m) {
			t.Errorf("m=%d: single-access RPC != data migration", m)
		}
		if m > 1 && Messages(ComputationMigration, 1, m) >= Messages(RPC, 1, m) {
			t.Errorf("m=%d: CM should beat RPC on a chain of single accesses", m)
		}
	}
}

// TestSeries checks one Figure 1 series, RPC at n = 2 for m = 1..5:
// 2·n·m messages.
func TestSeries(t *testing.T) {
	for m := 1; m <= 5; m++ {
		if got := Messages(RPC, 2, m); got != 2*2*m {
			t.Errorf("RPC(n=2, m=%d) = %d, want %d", m, got, 2*2*m)
		}
	}
}

func TestWinner(t *testing.T) {
	if w := Winner(10, 5); w != ComputationMigration {
		t.Errorf("winner(10,5) = %v", w)
	}
	// n=0: no accesses at all — RPC's 2·n·m = 0 wins trivially, while
	// both migration forms would still move things around.
	if w := Winner(0, 3); w != RPC {
		t.Errorf("winner(0,3) = %v", w)
	}
	// Single access to a single datum: RPC's 2 ties migration's 2; ties
	// go to RPC (first in comparison order).
	if w := Winner(1, 1); w != RPC {
		t.Errorf("winner(1,1) = %v", w)
	}
}

func TestNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative n accepted")
		}
	}()
	Messages(RPC, -1, 2)
}

func TestMechanismString(t *testing.T) {
	cases := map[Mechanism]string{
		RPC:                  "RPC",
		DataMigration:        "data migration",
		ComputationMigration: "computation migration",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if Mechanism(42).String() == "" {
		t.Error("unknown mechanism has empty name")
	}
}

// TestCrossover pins where computation migration starts to send
// strictly fewer messages at m = 1, the least favourable case for it.
func TestCrossover(t *testing.T) {
	cm := func(n int) int { return Messages(ComputationMigration, n, 1) }
	// Against RPC: CM costs 2 always; RPC costs 2n. CM wins strictly
	// from n=2.
	for n := 0; n <= 100; n++ {
		if wins := cm(n) < Messages(RPC, n, 1); wins != (n >= 2) {
			t.Errorf("n=%d: CM beats RPC = %v, want %v", n, wins, n >= 2)
		}
	}
	// Against data migration both cost 2 forever: no strict win.
	for n := 0; n <= 50; n++ {
		if cm(n) < Messages(DataMigration, n, 1) {
			t.Errorf("n=%d: CM beats data migration", n)
		}
	}
}
