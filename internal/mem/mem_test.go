package mem

import (
	"testing"

	"compmig/internal/network"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// rig builds a machine + shared-memory system for tests.
type rig struct {
	eng *sim.Engine
	m   *sim.Machine
	col *stats.Collector
	shm *System
}

// newRig builds a substrate on a fresh machine, which retires when the
// test ends.
func newRig(t testing.TB, nprocs int, p Params) *rig {
	eng := sim.NewEngine(7)
	m := sim.NewMachine(eng, nprocs)
	t.Cleanup(m.Retire)
	col := stats.NewCollector()
	net := network.New(m, network.Crossbar{}, []*stats.Collector{col}, 17, 0)
	return &rig{eng: eng, m: m, col: col, shm: New(eng, m, net, col, p)}
}

func TestAllocAlignmentAndHome(t *testing.T) {
	r := newRig(t, 4, DefaultParams())
	a := r.shm.Alloc(2, 5)
	b := r.shm.Alloc(2, 40)
	if HomeOf(a) != 2 || HomeOf(b) != 2 {
		t.Fatalf("homes = %d,%d", HomeOf(a), HomeOf(b))
	}
	if uint64(a)%LineBytes != 0 || uint64(b)%LineBytes != 0 {
		t.Fatalf("allocations not line-aligned: %x %x", a, b)
	}
	if lineOf(a) == lineOf(b) {
		t.Fatal("distinct objects share a cache line")
	}
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(t, 4, DefaultParams())
	addr := r.shm.Alloc(1, 8)
	r.eng.Spawn("reader", 0, func(th *sim.Thread) {
		r.shm.Read(th, 0, addr, 8)
		r.shm.Read(th, 0, addr, 8)
		r.shm.Read(th, 0, addr, 8)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.col.CacheMisses != 1 {
		t.Errorf("misses = %d, want 1", r.col.CacheMisses)
	}
	if r.col.CacheHits != 2 {
		t.Errorf("hits = %d, want 2", r.col.CacheHits)
	}
	// Miss traffic: request + data reply.
	if r.col.WordsSent == 0 {
		t.Error("remote miss produced no traffic")
	}
	words := r.col.WordsSent
	// Hits must add no traffic (checked by construction above — re-read).
	r.eng.Spawn("again", 0, func(th *sim.Thread) { r.shm.Read(th, 0, addr, 8) })
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.col.WordsSent != words {
		t.Error("cache hit generated traffic")
	}
}

func TestLocalMissNoTraffic(t *testing.T) {
	r := newRig(t, 4, DefaultParams())
	addr := r.shm.Alloc(0, 8)
	r.eng.Spawn("reader", 0, func(th *sim.Thread) {
		r.shm.Read(th, 0, addr, 8)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.col.CacheMisses != 1 {
		t.Errorf("misses = %d", r.col.CacheMisses)
	}
	if r.col.WordsSent != 0 {
		t.Errorf("local miss sent %d words on the network", r.col.WordsSent)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	r := newRig(t, 4, DefaultParams())
	addr := r.shm.Alloc(3, 4)
	phase := sim.NewBarrier(3)
	for p := 0; p < 2; p++ {
		p := p
		r.eng.Spawn("reader", 0, func(th *sim.Thread) {
			r.shm.Read(th, p, addr, 4)
			phase.Arrive(th)
		})
	}
	r.eng.Spawn("writer", 0, func(th *sim.Thread) {
		phase.Arrive(th) // wait until both readers cached the line
		r.shm.Write(th, 2, addr, 4)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.col.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", r.col.Invalidations)
	}
}

func TestDirtyRecallOnRead(t *testing.T) {
	r := newRig(t, 4, DefaultParams())
	addr := r.shm.Alloc(3, 4)
	done := &sim.Future{}
	r.eng.Spawn("writer", 0, func(th *sim.Thread) {
		r.shm.Write(th, 0, addr, 4)
		done.Complete(nil)
	})
	var hitsAfter uint64
	r.eng.Spawn("reader", 0, func(th *sim.Thread) {
		done.Wait(th)
		r.shm.Read(th, 1, addr, 4)
		// The recall downgraded the writer's copy to shared: a read by the
		// writer should now hit.
		before := r.col.CacheHits
		r.shm.Read(th, 0, addr, 4) // note: issued from p1's thread for simplicity
		_ = before
		hitsAfter = r.col.CacheHits
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if hitsAfter == 0 {
		t.Error("writer's downgraded copy not shared-hittable")
	}
}

func TestWriteSharedPingPong(t *testing.T) {
	r := newRig(t, 2, DefaultParams())
	addr := r.shm.Alloc(0, 4)
	// Two procs alternately RMW the same line: every access after the
	// first exchange must miss (the migratory write-shared pattern that
	// makes shared memory expensive in the paper).
	turn := 0
	var q sim.WaitQueue
	const rounds = 10
	for p := 0; p < 2; p++ {
		p := p
		r.eng.Spawn("toggler", 0, func(th *sim.Thread) {
			for i := 0; i < rounds; i++ {
				for turn%2 != p {
					q.Wait(th, "turn")
				}
				r.shm.RMW(th, p, addr)
				turn++
				q.Broadcast()
			}
		})
	}
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.col.CacheMisses < 2*rounds-2 {
		t.Errorf("misses = %d, want ~%d (ping-pong)", r.col.CacheMisses, 2*rounds)
	}
	if r.col.Invalidations == 0 {
		t.Error("no invalidations during write ping-pong")
	}
}

func TestEvictionWriteback(t *testing.T) {
	p := DefaultParams()
	p.CacheBytes = 256 // 16 lines, 2 ways -> 8 sets
	p.Ways = 2
	r := newRig(t, 2, p)
	// Write 3 lines that map to the same set (stride = sets*LineBytes).
	stride := uint64(8 * LineBytes)
	base := r.shm.Alloc(1, 4*uint64(stride))
	r.eng.Spawn("writer", 0, func(th *sim.Thread) {
		for i := uint64(0); i < 3; i++ {
			r.shm.Write(th, 0, base+Addr(i*stride), 4)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Three dirty installs into a 2-way set force at least one writeback.
	if r.col.TotalMessages() == 0 {
		t.Fatal("no coherence messages at all")
	}
	// The written-back line returned to uncached-everywhere, so its
	// directory entry was reclaimed; only the two still-cached lines keep
	// directory state.
	if len(r.shm.dirs[1]) != 2 {
		t.Errorf("dir entries = %d, want 2 (evicted line reclaimed)", len(r.shm.dirs[1]))
	}
}

func TestMultiLineAccess(t *testing.T) {
	r := newRig(t, 2, DefaultParams())
	addr := r.shm.Alloc(1, 64) // 4 lines
	r.eng.Spawn("reader", 0, func(th *sim.Thread) {
		r.shm.Read(th, 0, addr, 64)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.col.CacheMisses != 4 {
		t.Errorf("misses = %d, want 4 (one per line)", r.col.CacheMisses)
	}
}

func TestModuleSerialization(t *testing.T) {
	r := newRig(t, 9, DefaultParams())
	addr := r.shm.Alloc(8, 4)
	for p := 0; p < 8; p++ {
		p := p
		r.eng.Spawn("reader", 0, func(th *sim.Thread) {
			r.shm.Read(th, p, addr, 4)
		})
	}
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.shm.modules[8].Busy == 0 {
		t.Error("memory module never busy")
	}
	// All 8 procs should now share the line: a write triggers 8... 7
	// invalidations at least (stale sharers allowed).
	r.eng.Spawn("writer", 0, func(th *sim.Thread) {
		r.shm.Write(th, 8, addr, 4)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.col.Invalidations < 7 {
		t.Errorf("invalidations = %d, want >= 7", r.col.Invalidations)
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	r := newRig(t, 8, DefaultParams())
	addr := r.shm.Alloc(0, 4)
	completed := 0
	for p := 0; p < 8; p++ {
		p := p
		r.eng.Spawn("writer", 0, func(th *sim.Thread) {
			for i := 0; i < 5; i++ {
				r.shm.Write(th, p, addr, 4)
				th.Sleep(sim.Time(1 + p))
			}
			completed++
		})
	}
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if completed != 8 {
		t.Fatalf("only %d/8 writers completed (protocol deadlock?)", completed)
	}
}

// TestRandomizedProtocolNoDeadlock drives random reads/writes from random
// processors and checks the protocol always quiesces, on a small machine
// and on one whose sharer sets span two directory words.
func TestRandomizedProtocolNoDeadlock(t *testing.T) {
	for _, n := range []int{6, 65} {
		for seed := uint64(1); seed <= 5; seed++ {
			p := DefaultParams()
			p.CacheBytes = 512 // tiny cache to force evictions
			p.Ways = 2
			r := newRig(t, n, p)
			rng := sim.NewPRNG(seed)
			var addrs []Addr
			for i := 0; i < 20; i++ {
				addrs = append(addrs, r.shm.Alloc(rng.Intn(n), 16))
			}
			finished := 0
			for pid := 0; pid < n; pid++ {
				pid := pid
				r.eng.Spawn("mutator", 0, func(th *sim.Thread) {
					for i := 0; i < 100; i++ {
						a := addrs[rng.Intn(len(addrs))]
						switch rng.Intn(3) {
						case 0:
							r.shm.Read(th, pid, a, 16)
						case 1:
							r.shm.Write(th, pid, a, 8)
						default:
							r.shm.RMW(th, pid, a)
						}
					}
					finished++
				})
			}
			if err := r.eng.Run(); err != nil {
				t.Fatalf("N=%d seed %d: %v", n, seed, err)
			}
			if finished != n {
				t.Fatalf("N=%d seed %d: %d/%d mutators finished", n, seed, finished, n)
			}
			// Every op touches exactly one line (line-aligned 16-byte objects).
			if total := r.col.CacheHits + r.col.CacheMisses; total != uint64(n)*100 {
				t.Fatalf("N=%d seed %d: hits+misses = %d, want %d", n, seed, total, n*100)
			}
			if err := r.shm.CheckCoherence(); err != nil {
				t.Fatalf("N=%d seed %d: %v", n, seed, err)
			}
		}
	}
}

func TestHitMissAccountingConsistent(t *testing.T) {
	r := newRig(t, 3, DefaultParams())
	addr := r.shm.Alloc(1, 4)
	accesses := 0
	r.eng.Spawn("reader", 0, func(th *sim.Thread) {
		for i := 0; i < 10; i++ {
			r.shm.Read(th, 0, addr, 4)
			accesses++
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.col.CacheHits + r.col.CacheMisses; got != uint64(accesses) {
		t.Errorf("hits+misses = %d, want %d", got, accesses)
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	p := DefaultParams()
	p.Ways = 4 // LRU only matters in associative configurations
	c := newCache(p)
	sets := uint64(len(c.lines) / c.ways)
	stride := Addr(sets * LineBytes)
	// Fill one set (4 ways), touch line 0 to refresh it, then install a
	// 5th line: the victim must be line 1 (LRU), not line 0.
	for i := 0; i < 4; i++ {
		c.install(Addr(i)*stride, shared)
	}
	if c.lookup(0) == nil {
		t.Fatal("line 0 missing")
	}
	victim, vstate := c.install(4*stride, shared)
	if vstate == invalid {
		t.Fatal("no eviction from full set")
	}
	if victim != stride {
		t.Errorf("victim = %#x, want %#x (LRU)", victim, stride)
	}
	if c.lookup(0) == nil {
		t.Error("recently used line evicted")
	}
}

func TestSystemAccessors(t *testing.T) {
	r := newRig(t, 2, DefaultParams())
	if r.shm.col != r.col {
		t.Error("collector accessor wrong")
	}
	addr := r.shm.Alloc(1, 4)
	r.eng.Spawn("reader", 0, func(th *sim.Thread) {
		r.shm.Read(th, 0, addr, 4)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.shm.modules[1].Utilization() <= 0 {
		t.Error("home module utilization zero after a remote miss")
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	run := func(prefetch bool) sim.Time {
		r := newRig(t, 2, DefaultParams())
		base := r.shm.Alloc(1, 8*LineBytes)
		var elapsed sim.Time
		r.eng.Spawn("reader", 0, func(th *sim.Thread) {
			start := th.Now()
			if prefetch {
				r.shm.Prefetch(0, base, 8*LineBytes)
			}
			for i := 0; i < 8; i++ {
				r.shm.Read(th, 0, base+Addr(i*LineBytes), 8)
			}
			elapsed = th.Now() - start
		})
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	demand := run(false)
	overlapped := run(true)
	if overlapped >= demand {
		t.Errorf("prefetch (%d cycles) not faster than demand misses (%d)", overlapped, demand)
	}
}

func TestPrefetchJoinNoDuplicateFetch(t *testing.T) {
	r := newRig(t, 2, DefaultParams())
	addr := r.shm.Alloc(1, 8)
	r.eng.Spawn("reader", 0, func(th *sim.Thread) {
		r.shm.Prefetch(0, addr, 8)
		// Demand read while the prefetch is in flight must join it.
		r.shm.Read(th, 0, addr, 8)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.col.Prefetches != 1 {
		t.Errorf("prefetches = %d", r.col.Prefetches)
	}
	if r.col.PrefetchJoins != 1 {
		t.Errorf("joins = %d, want 1", r.col.PrefetchJoins)
	}
	// One line moved once: exactly one request + one data reply.
	if got := r.col.TotalMessages(); got != 2 {
		t.Errorf("coherence messages = %d, want 2 (no duplicate fetch)", got)
	}
	if err := r.shm.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchCachedLineIsNoop(t *testing.T) {
	r := newRig(t, 2, DefaultParams())
	addr := r.shm.Alloc(1, 8)
	r.eng.Spawn("reader", 0, func(th *sim.Thread) {
		r.shm.Read(th, 0, addr, 8)
		before := r.col.Prefetches
		r.shm.Prefetch(0, addr, 8)
		if r.col.Prefetches != before {
			t.Error("prefetch of a cached line issued a fetch")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}
