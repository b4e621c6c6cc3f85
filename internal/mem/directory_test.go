package mem

import (
	"fmt"
	"sort"
	"testing"

	"compmig/internal/sim"
)

// The full-map directory keeps each line's sharers as a bit vector of
// (N+63)/64 words, so a sharer set can straddle a 64-processor word
// boundary. These tests put sharers on both sides of every boundary and
// pin the slow path's allocation counts at zero.

// TestInvalidationAcrossWordBoundaries writes a line read-shared by
// processors on both sides of each word boundary under LimitLESS and
// checks that the invalidations go out in ascending processor order, that
// every sharer is counted once, and that the trap walks all of them.
func TestInvalidationAcrossWordBoundaries(t *testing.T) {
	const home, writer = 1, 2
	for _, c := range []struct {
		n       int
		sharers []int
	}{
		{63, []int{62, 0, 31}},
		{64, []int{63, 0, 62}},
		{65, []int{64, 62, 63}},
		{130, []int{129, 0, 63, 64, 127, 128}},
	} {
		t.Run(fmt.Sprintf("N=%d", c.n), func(t *testing.T) {
			p := DefaultParams()
			p.CacheBytes = 256
			p.DirPointers = 2
			r := newRig(t, c.n, p)
			addr := r.shm.Alloc(home, 4)
			var busy sim.Time
			var tr *sim.Tracer
			r.eng.Spawn("driver", 0, func(th *sim.Thread) {
				for _, q := range c.sharers { // unsorted: order must come from the directory
					r.shm.Read(th, q, addr, 4)
				}
				busy, tr = r.m.Proc(home).Busy, r.eng.EnableTrace(1<<12)
				r.shm.Write(th, writer, addr, 4)
			})
			if err := r.eng.Run(); err != nil {
				t.Fatal(err)
			}
			want := append([]int(nil), c.sharers...)
			sort.Ints(want)
			var got []int
			for _, ev := range tr.Events() {
				var src, dst int
				if _, err := fmt.Sscanf(ev.Detail, "coherence p%d->p%d", &src, &dst); err == nil &&
					ev.Kind == "deliver" && src == home && dst != writer {
					got = append(got, dst)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("invalidations delivered to %v, want %v", got, want)
			}
			k := uint64(len(want))
			if r.col.Invalidations != k {
				t.Errorf("invalidations = %d, want %d", r.col.Invalidations, k)
			}
			if got, want := r.m.Proc(home).Busy-busy, p.SoftDirBase+p.SoftDirPerSharer*k; got != want {
				t.Errorf("home CPU charged %d cycles for the write's trap, want %d", got, want)
			}
			if err := r.shm.CheckCoherence(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// allocsPerAccess warms op, run by one thread, and returns its heap
// allocations per call. Everything op's accesses schedule — directory
// transactions, invalidations, writebacks — runs while the thread waits,
// so it is counted too.
func allocsPerAccess(t *testing.T, r *rig, op func(th *sim.Thread)) float64 {
	t.Helper()
	var n float64
	r.eng.Spawn("driver", 0, func(th *sim.Thread) {
		for i := 0; i < 16; i++ {
			op(th) // fill the txn, record, message and event pools
		}
		n = testing.AllocsPerRun(100, func() { op(th) })
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.shm.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	return n
}

func smallCacheParams() Params {
	p := DefaultParams()
	p.CacheBytes = 256 // 16 direct-mapped sets
	return p
}

// TestInvalidatingWriteAllocs pins a warm write that invalidates k
// sharers — one, three, and a set crossing two word boundaries — at zero
// allocations: the sharers re-read the line (recalling the writer's dirty
// copy), then the writer invalidates them all.
func TestInvalidatingWriteAllocs(t *testing.T) {
	const writer = 1
	for _, sharers := range [][]int{{2}, {2, 3, 4}, {5, 63, 64, 65, 127, 128}} {
		r := newRig(t, 130, smallCacheParams())
		addr := r.shm.Alloc(0, 4)
		n := allocsPerAccess(t, r, func(th *sim.Thread) {
			for _, q := range sharers {
				r.shm.Read(th, q, addr, 4)
			}
			r.shm.Write(th, writer, addr, 4)
		})
		if want := uint64(len(sharers)) * (16 + 101); r.col.Invalidations != want {
			t.Errorf("sharers %v: %d invalidations, want %d", sharers, r.col.Invalidations, want)
		}
		if n > 0 {
			t.Errorf("sharers %v: a warm invalidating write allocates %v objects, want 0", sharers, n)
		}
	}
}

// sameSet returns two lines homed on home that map to the same set of a
// smallCacheParams cache, so each evicts the other.
func sameSet(r *rig, home int) (a, b Addr) {
	a = r.shm.Alloc(home, 512)
	return a, a + 256
}

// TestReclaimedEntryMissAllocs pins a warm miss on a line whose directory
// entry a writeback reclaimed: the entry comes back from the free list.
func TestReclaimedEntryMissAllocs(t *testing.T) {
	r := newRig(t, 2, smallCacheParams())
	a, b := sameSet(r, 0)
	n := allocsPerAccess(t, r, func(th *sim.Thread) {
		r.shm.Write(th, 1, a, 4) // a's entry was reclaimed by the last round
		r.shm.Write(th, 1, b, 4) // evicts a: its writeback leaves a uncached
		th.Sleep(1000)           // let the writeback reclaim a's entry
	})
	if got := len(r.shm.dirs[0]); got != 1 {
		t.Errorf("%d directory entries at home 0, want 1 (a's reclaimed)", got)
	}
	if n > 0 {
		t.Errorf("a warm miss on a reclaimed entry allocates %v objects, want 0", n)
	}
}

// TestDirtyWritebackAllocs pins a warm dirty eviction: each write evicts
// the other line's modified copy, whose writeback is a queued directory
// transaction like any miss.
func TestDirtyWritebackAllocs(t *testing.T) {
	r := newRig(t, 2, smallCacheParams())
	a, b := sameSet(r, 0)
	sent := r.col.TotalMessages()
	n := allocsPerAccess(t, r, func(th *sim.Thread) {
		r.shm.Write(th, 1, a, 4)
		r.shm.Write(th, 1, b, 4)
	})
	// Each write is a request, a grant and a writeback of the line it
	// evicts; only the very first write evicts nothing.
	if got, want := r.col.TotalMessages()-sent, uint64(3*2*(16+101)-1); got != want {
		t.Errorf("%d coherence messages, want %d", got, want)
	}
	if n > 0 {
		t.Errorf("a warm dirty writeback allocates %v objects, want 0", n)
	}
}
