package main

import (
	"testing"

	"compmig/internal/clitest"
	"compmig/internal/core"
	"compmig/internal/sim"
)

// TestStdoutGolden pins the example's full stdout.
func TestStdoutGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the example")
	}
	clitest.Golden(t, clitest.Build(t, "listtraversal"), [][]string{{}})
}

// TestClosingText checks the closing text's claims: every mechanism
// computes the same sum; computation migration sends one message per
// node plus the return, RPC and shared memory two per node; and CM
// beats RPC in cycles while SM beats every CM variant.
func TestClosingText(t *testing.T) {
	const want = listLen * (listLen + 1) / 2
	cycles := map[string]sim.Time{}
	for _, s := range schemes {
		sum, cyc, msgs, _ := traverse(s)
		if sum != want {
			t.Errorf("%s: sum %d, want %d", s.Name(), sum, want)
		}
		wantMsgs := uint64(2 * listLen)
		if s.Mechanism == core.Migrate {
			wantMsgs = listLen + 1
		}
		if msgs != wantMsgs {
			t.Errorf("%s: %d messages, want %d", s.Name(), msgs, wantMsgs)
		}
		cycles[s.Name()] = cyc
	}
	for _, p := range [][2]string{{"CP", "RPC"}, {"SM", "CP"}, {"SM", "CP w/HW"}} {
		if cycles[p[0]] >= cycles[p[1]] {
			t.Errorf("%s (%d cycles) does not beat %s (%d cycles)", p[0], cycles[p[0]], p[1], cycles[p[1]])
		}
	}
}
