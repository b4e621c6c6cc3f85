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
	clitest.Golden(t, clitest.Build(t, "frames"), [][]string{{}})
}

// TestPartialFrameTradeoff checks the doc's trade-off: every granularity
// computes the same result, and partial migration beats RPC, which beats
// whole-frame migration, both in cycles and in wire words.
func TestPartialFrameTradeoff(t *testing.T) {
	type cost struct{ cycles, words uint64 }
	costs := map[string]cost{}
	for _, mode := range modes {
		res, cyc, words := run(mode)
		if want := uint64(probes*1000 + bufWords); res != want {
			t.Errorf("%s: result %d, want %d", mode, res, want)
		}
		costs[mode] = cost{uint64(cyc), words}
	}
	for _, pair := range [][2]string{{"partial", "rpc"}, {"rpc", "whole-frame"}} {
		lo, hi := costs[pair[0]], costs[pair[1]]
		if lo.cycles >= hi.cycles || lo.words >= hi.words {
			t.Errorf("%s (%d cycles, %d words) does not beat %s (%d cycles, %d words)",
				pair[0], lo.cycles, lo.words, pair[1], hi.cycles, hi.words)
		}
	}
}
