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
	clitest.Golden(t, clitest.Build(t, "fft"), [][]string{{}})
}

// TestDataMigratesOnce checks the doc's claims: every exchange computes
// the transform a direct DFT does; the bulk exchange moves the data
// exactly once, one block per ordered pair of processors; and that
// single exchange is the fastest of the three.
func TestDataMigratesOnce(t *testing.T) {
	input := signal()
	want := dft(input)
	cycles := map[string]sim.Time{}
	for _, mech := range exchanges {
		got, cyc, msgs, _ := transposeFFT(input, mech)
		if e := maxError(got, want); !(e < 1e-9) {
			t.Errorf("%s: max error %.2e against the direct DFT", mech, e)
		}
		if mech == "bulk" && msgs != p*(p-1) {
			t.Errorf("bulk sent %d messages, want p(p-1) = %d", msgs, p*(p-1))
		}
		cycles[mech] = cyc
	}
	for _, mech := range exchanges[1:] {
		if cycles["bulk"] >= cycles[mech] {
			t.Errorf("bulk (%d cycles) is not faster than %s (%d cycles)", cycles["bulk"], mech, cycles[mech])
		}
	}
}
