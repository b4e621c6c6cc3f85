package mem

import (
	"testing"

	"compmig/internal/sim"
)

func TestCheckCoherenceCleanRuns(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		p := DefaultParams()
		p.CacheBytes = 512
		r := newRig(t, 6, p)
		rng := sim.NewPRNG(seed)
		var addrs []Addr
		for i := 0; i < 24; i++ {
			addrs = append(addrs, r.shm.Alloc(rng.Intn(6), 16))
		}
		for pid := 0; pid < 6; pid++ {
			pid := pid
			r.eng.Spawn("mutator", 0, func(th *sim.Thread) {
				for i := 0; i < 80; i++ {
					a := addrs[rng.Intn(len(addrs))]
					if rng.Intn(2) == 0 {
						r.shm.Read(th, pid, a, 16)
					} else {
						r.shm.Write(th, pid, a, 8)
					}
				}
			})
		}
		if err := r.eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := r.shm.CheckCoherence(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCheckCoherenceDetectsCorruption(t *testing.T) {
	r := newRig(t, 3, DefaultParams())
	addr := r.shm.Alloc(0, 4)
	r.eng.Spawn("w", 0, func(th *sim.Thread) {
		r.shm.Write(th, 1, addr, 4)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.shm.CheckCoherence(); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}
	// Corrupt: force a second modified copy.
	r.shm.caches[2].install(lineOf(addr), modified)
	if err := r.shm.CheckCoherence(); err == nil {
		t.Fatal("double-modified line not detected")
	}
}

func TestLimitlessTrapsOnWideSharing(t *testing.T) {
	p := DefaultParams()
	p.DirPointers = 3
	r := newRig(t, 10, p)
	addr := r.shm.Alloc(9, 4)

	// Nine readers overflow the 3 hardware pointers.
	barrier := sim.NewBarrier(9)
	for pid := 0; pid < 9; pid++ {
		pid := pid
		r.eng.Spawn("reader", 0, func(th *sim.Thread) {
			r.shm.Read(th, pid, addr, 4)
			barrier.Arrive(th)
			// Second round of reads on the overflowed line traps.
			r.shm.Read(th, pid, addr, 4)
		})
	}
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.col.LimitlessTraps == 0 {
		t.Fatal("no LimitLESS software traps on a widely shared line")
	}
	// The traps ran on the home CPU, not just the memory module.
	if r.m.Proc(9).Busy == 0 {
		t.Error("home processor never charged for software directory handling")
	}
	if err := r.shm.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestFullMapNeverTraps(t *testing.T) {
	r := newRig(t, 10, DefaultParams())
	addr := r.shm.Alloc(9, 4)
	for pid := 0; pid < 9; pid++ {
		pid := pid
		r.eng.Spawn("reader", 0, func(th *sim.Thread) {
			r.shm.Read(th, pid, addr, 4)
			th.Sleep(100)
			r.shm.Read(th, pid, addr, 4)
		})
	}
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.col.LimitlessTraps != 0 {
		t.Fatalf("full-map directory trapped %d times", r.col.LimitlessTraps)
	}
}

// TestLimitlessSlowsWideInvalidation: invalidating a widely shared line
// is costlier under LimitLESS than under a full-map directory.
func TestLimitlessSlowsWideInvalidation(t *testing.T) {
	run := func(pointers int) sim.Time {
		p := DefaultParams()
		p.DirPointers = pointers
		r := newRig(t, 10, p)
		addr := r.shm.Alloc(9, 4)
		barrier := sim.NewBarrier(10)
		var writeDone sim.Time
		for pid := 0; pid < 9; pid++ {
			pid := pid
			r.eng.Spawn("reader", 0, func(th *sim.Thread) {
				r.shm.Read(th, pid, addr, 4)
				barrier.Arrive(th)
			})
		}
		r.eng.Spawn("writer", 0, func(th *sim.Thread) {
			barrier.Arrive(th)
			start := th.Now()
			r.shm.Write(th, 9, addr, 4)
			writeDone = th.Now() - start
		})
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return writeDone
	}
	full := run(0)
	limited := run(2)
	if limited <= full {
		t.Errorf("LimitLESS invalidation (%d cycles) not slower than full-map (%d)", limited, full)
	}
}
