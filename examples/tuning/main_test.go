package main

import (
	"testing"

	"compmig/internal/clitest"
	"compmig/internal/sim"
)

// TestStdoutGolden pins the example's full stdout.
func TestStdoutGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the example")
	}
	clitest.Golden(t, clitest.Build(t, "tuning"), [][]string{{}})
}

// TestAnnotationIsATuningKnob checks the doc's claims: every placement
// returns the same 13 accesses; migrating at both A and B is the
// cheapest placement; and against migrating at A and calling B it saves
// exactly one message.
func TestAnnotationIsATuningKnob(t *testing.T) {
	type cost struct {
		cycles   sim.Time
		messages uint64
	}
	costs := map[plan]cost{}
	for _, p := range plans {
		total, cycles, messages := run(p)
		if total != accessesA+accessesB {
			t.Errorf("%v: result %d, want %d", p, total, accessesA+accessesB)
		}
		costs[p] = cost{cycles, messages}
	}
	best := atA | atB
	for p, c := range costs {
		if p != best && c.cycles <= costs[best].cycles {
			t.Errorf("%v (%d cycles) is no dearer than %v (%d cycles)", p, c.cycles, best, costs[best].cycles)
		}
	}
	if aOnly := costs[atA]; costs[best].messages+1 != aOnly.messages {
		t.Errorf("%v sends %d messages, want one fewer than %v's %d",
			best, costs[best].messages, atA, aOnly.messages)
	}
}
