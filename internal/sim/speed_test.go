package sim

import "testing"

// TestProcSpeedStretchesWork pins the heterogeneity contract: a segment
// of n cycles on a num/den processor occupies ceil(n*num/den) cycles,
// through both the thread path (Exec) and the inline paths (ReserveAt,
// ExecAsync).
func TestProcSpeedStretchesWork(t *testing.T) {
	eng := NewEngine(1)
	m := NewMachine(eng, 2)
	slow, fast := m.Proc(0), m.Proc(1)
	slow.SetSpeed(250, 100) // 2.5x slower

	var slowDone, fastDone Time
	eng.Spawn("slow", 0, func(th *Thread) {
		th.Exec(slow, 100)
		slowDone = th.Now()
	})
	eng.Spawn("fast", 0, func(th *Thread) {
		th.Exec(fast, 100)
		fastDone = th.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fastDone != 100 {
		t.Fatalf("full-speed segment took %d cycles, want 100", fastDone)
	}
	if slowDone != 250 {
		t.Fatalf("2.5x-slow segment took %d cycles, want 250", slowDone)
	}
	if slow.Busy != 250 || fast.Busy != 100 {
		t.Fatalf("busy = %d/%d, want 250/100", slow.Busy, fast.Busy)
	}
}

func TestProcSpeedCeilingAndReserveAt(t *testing.T) {
	eng := NewEngine(1)
	m := NewMachine(eng, 1)
	p := m.Proc(0)
	p.SetSpeed(150, 100)
	// ceil(7 * 150/100) = ceil(10.5) = 11.
	if end := p.ReserveAt(0, 7); end != 11 {
		t.Fatalf("ReserveAt scaled end = %d, want 11", end)
	}
	// Zero-cycle segments stay zero.
	if end := p.ReserveAt(11, 0); end != 11 {
		t.Fatalf("zero segment end = %d, want 11", end)
	}
	// Restoring 1:1 disables scaling.
	p.SetSpeed(1, 1)
	if p.speedNum != 0 || p.speedDen != 0 {
		t.Fatalf("speed = %d/%d after 1/1, want unscaled", p.speedNum, p.speedDen)
	}
	if end := p.ReserveAt(11, 7); end != 18 {
		t.Fatalf("unscaled end = %d, want 18", end)
	}
}

func TestSetSpeedRejectsBadRatios(t *testing.T) {
	eng := NewEngine(1)
	p := NewMachine(eng, 1).Proc(0)
	for _, r := range [][2]Time{{0, 1}, {1, 0}, {99, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetSpeed(%d, %d) did not panic", r[0], r[1])
				}
			}()
			p.SetSpeed(r[0], r[1])
		}()
	}
}
