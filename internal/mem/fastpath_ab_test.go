package mem

import (
	"testing"

	"compmig/internal/sim"
)

// abWorkload drives a mixed access pattern designed to exercise every
// protocol corner: repeated hits, home-local misses, remote misses,
// write invalidations of multi-proc sharer sets, dirty recalls, and
// capacity evictions with writebacks (via a working set larger than the
// tiny cache below).
func abWorkload(r *rig, nprocs int) {
	const objs = 96
	addrs := make([]Addr, objs)
	for i := range addrs {
		addrs[i] = r.shm.Alloc(i%nprocs, 8)
	}
	phase := sim.NewBarrier(nprocs)
	for p := 0; p < nprocs; p++ {
		p := p
		r.eng.Spawn("worker", 0, func(th *sim.Thread) {
			// Round 1: everyone reads everything (shared replication,
			// capacity evictions in the small cache).
			for _, a := range addrs {
				r.shm.Read(th, p, a, 8)
			}
			phase.Arrive(th)
			// Round 2: strided writes (invalidations, dirty lines).
			for i := p; i < objs; i += nprocs {
				r.shm.Write(th, p, addrs[i], 8)
			}
			phase.Arrive(th)
			// Round 3: re-read own home lines (local misses after the
			// remote writes, then hits) and RMW a shared counter.
			for i := p; i < objs; i += nprocs {
				r.shm.Read(th, p, addrs[i%nprocs], 8)
			}
			r.shm.RMW(th, p, addrs[0])
			phase.Arrive(th)
		})
	}
}

// abRun executes the workload with the fast paths set as given and
// returns the rig for inspection.
func abRun(t *testing.T, fast bool) *rig {
	t.Helper()
	SetFastPath(fast)
	t.Cleanup(func() { SetFastPath(true) })
	p := DefaultParams()
	p.CacheBytes = 1 << 10 // force capacity evictions
	r := newRig(4, p)
	abWorkload(r, 4)
	if err := r.eng.Run(); err != nil {
		t.Fatalf("fastpath=%v: %v", fast, err)
	}
	// Solo phase: with every other thread done the event heap is quiet,
	// which is the regime where the inline paths can actually commit —
	// fresh home-local lines miss inline, re-reads hit inline.
	solo := make([]Addr, 8)
	for i := range solo {
		solo[i] = r.shm.Alloc(0, 8)
	}
	r.eng.Spawn("solo", 0, func(th *sim.Thread) {
		for _, a := range solo {
			r.shm.Read(th, 0, a, 8)
			r.shm.Read(th, 0, a, 8)
			r.shm.Write(th, 0, a, 8)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatalf("fastpath=%v solo: %v", fast, err)
	}
	return r
}

// TestFastPathCollectorIdentity is the substrate-level half of the A/B
// identity contract: every simulated metric — the clock included — must
// be identical whether accesses take the inline fast paths or the
// event-driven protocol.
func TestFastPathCollectorIdentity(t *testing.T) {
	on := abRun(t, true)
	off := abRun(t, false)

	if got, want := on.eng.Now(), off.eng.Now(); got != want {
		t.Errorf("simulated end time: fastpath=%d, slowpath=%d", got, want)
	}
	type metric struct {
		name    string
		on, off uint64
	}
	metrics := []metric{
		{"cycles", on.col.TotalCycles(), off.col.TotalCycles()},
		{"words sent", on.col.WordsSent, off.col.WordsSent},
		{"cache hits", on.col.CacheHits, off.col.CacheHits},
		{"cache misses", on.col.CacheMisses, off.col.CacheMisses},
		{"invalidations", on.col.Invalidations, off.col.Invalidations},
		{"protocol msgs", on.col.ProtocolMsgs, off.col.ProtocolMsgs},
	}
	for _, m := range metrics {
		if m.on != m.off {
			t.Errorf("%s: fastpath=%d, slowpath=%d", m.name, m.on, m.off)
		}
	}
	for home := 0; home < 4; home++ {
		if got, want := len(on.shm.dirs[home]), len(off.shm.dirs[home]); got != want {
			t.Errorf("dir entries at home %d: fastpath=%d, slowpath=%d", home, got, want)
		}
	}

	// The A/B must actually have exercised both regimes.
	fastHits, fastLocal := on.shm.nFastHits, on.shm.nFastLocal
	if fastHits == 0 {
		t.Error("fastpath run never took the inline hit path")
	}
	if fastLocal == 0 {
		t.Error("fastpath run never took the inline local-miss path")
	}
	offHits, offLocal := off.shm.nFastHits, off.shm.nFastLocal
	if offHits != 0 || offLocal != 0 {
		t.Errorf("disabled run took fast paths: hits=%d local=%d", offHits, offLocal)
	}
}

// TestDirEntriesBoundedUnderCycling is the directory-reclamation
// contract: a working set cycled through a small cache forces endless
// dirty evictions, and each writeback that leaves a line uncached
// everywhere must delete its directory entry — the table must stay
// bounded by the set of lines that can actually be cached or in flight,
// not grow with every line ever touched.
func TestDirEntriesBoundedUnderCycling(t *testing.T) {
	p := DefaultParams()
	p.CacheBytes = 1 << 10 // 64 lines
	r := newRig(2, p)

	const objs = 512 // working set 8x the cache
	addrs := make([]Addr, objs)
	for i := range addrs {
		addrs[i] = r.shm.Alloc(0, 8)
	}
	r.eng.Spawn("cycler", 0, func(th *sim.Thread) {
		for round := 0; round < 4; round++ {
			for _, a := range addrs {
				r.shm.Write(th, 1, a, 8) // dirty every line: evictions write back
			}
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.shm.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	// Everything is homed at 0; proc 1's cache holds at most 64 lines,
	// so with reclamation the directory cannot hold many more than that.
	cacheLines := p.CacheBytes / int(LineBytes)
	if got := len(r.shm.dirs[0]); got > 2*cacheLines {
		t.Errorf("dir entries = %d after cycling %d lines, want bounded near cache capacity %d",
			got, objs, cacheLines)
	}
}
