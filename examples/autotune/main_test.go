package main

import (
	"testing"

	"compmig/internal/clitest"
)

// TestStdoutGolden pins the example's full stdout.
func TestStdoutGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the example")
	}
	clitest.Golden(t, clitest.Build(t, "autotune"), [][]string{{}})
}

// TestAdvisorMixBeatsPurePlans checks the doc's claim, the advisor's
// choices judged by measurement: every plan makes the same accesses, and
// the mixed plan takes fewer cycles than both all-migrate and all-RPC.
func TestAdvisorMixBeatsPurePlans(t *testing.T) {
	want := uint64(0)
	for _, n := range accesses {
		want += uint64(n)
	}
	advised, _ := advise()
	if advised == allRPC || advised == allMig {
		t.Fatalf("advisor chose a pure plan (%#x)", advised)
	}
	mixRes, mix, _ := run(advised)
	if mixRes != want {
		t.Errorf("advisor mix: result %d, want %d", mixRes, want)
	}
	for name, plan := range map[string]uint32{"all RPC": allRPC, "all migrate": allMig} {
		res, cyc, _ := run(plan)
		if res != want {
			t.Errorf("%s: result %d, want %d", name, res, want)
		}
		if mix >= cyc {
			t.Errorf("advisor mix (%d cycles) does not beat %s (%d cycles)", mix, name, cyc)
		}
	}
}
