package bench

import "testing"

// TestCalibratorAllocatesNothing pins that the reference loop, which
// runs inside the timed reps, adds nothing to alloc_mb or allocs_m.
func TestCalibratorAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	defer c.close()
	c.run()
	if n := testing.AllocsPerRun(3, func() { c.run() }); n != 0 {
		t.Errorf("calibrator run allocates %v objects, want 0", n)
	}
}
