package mem

import "testing"

// TestBackingPoolAllocs pins the cache-backing pool's reuse. A round
// makes k caches and then releases them all; repeated, every round after
// the first takes all its backings from the pool, and the pool never
// holds more backings than the largest round needed. A free list split
// over shards picked by one round-robin cursor shared by gets and puts
// fails it: the puts land on other shards than the gets drained, so
// some gets miss while idle blocks pile up elsewhere.
func TestBackingPoolAllocs(t *testing.T) {
	p := DefaultParams()
	backings.mu.Lock()
	backings.free = nil // leftovers of earlier tests
	backings.mu.Unlock()
	seen := make(map[*cacheBacking]bool)
	most := 0
	for _, k := range []int{4, 12, 20} {
		most = max(most, k)
		for round := 0; round < 40; round++ {
			caches := make([]*cache, k)
			fresh := 0
			for i := range caches {
				caches[i] = newCache(p)
				if !seen[caches[i].back] {
					seen[caches[i].back] = true
					fresh++
				}
			}
			for _, c := range caches {
				c.release()
			}
			if round > 0 && fresh > 0 {
				t.Fatalf("k=%d, round %d: %d of %d backings fresh, want all from the pool", k, round, fresh, k)
			}
			backings.mu.Lock()
			pooled := len(backings.free)
			backings.mu.Unlock()
			if pooled > most {
				t.Fatalf("k=%d, round %d: pool holds %d backings, want at most %d", k, round, pooled, most)
			}
		}
	}
}
