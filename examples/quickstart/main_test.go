package main

import (
	"testing"

	"compmig/internal/clitest"
	"compmig/internal/core"
)

// TestStdoutGolden pins the example's full stdout.
func TestStdoutGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the example")
	}
	clitest.Golden(t, clitest.Build(t, "quickstart"), [][]string{{}})
}

// TestSameResultEitherWay checks the closing claim: the annotation
// changes only performance (§3.1), so both mechanisms leave the account
// at 100 + 5×10.
func TestSameResultEitherWay(t *testing.T) {
	for _, mech := range []core.Mechanism{core.RPC, core.Migrate} {
		if bal, _, _, _ := run(mech); bal != 150 {
			t.Errorf("%v: balance %d, want 150", mech, bal)
		}
	}
}
