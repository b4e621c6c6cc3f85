package load

import "testing"

type ev struct {
	at   uint64
	kind Kind
	key  uint64
}

// TestGenGolden pins the exact event sequence per (spec, seed). These
// are load's determinism contract: a golden change means every pinned
// experiment table downstream silently changes too.
func TestGenGolden(t *testing.T) {
	cases := []struct {
		name string
		spec string
		seed uint64
		want []ev
	}{
		{"uniform", "keys=64,ops=12,period=100", 1, []ev{{19, 0, 28}, {55, 0, 63}, {93, 0, 1}, {103, 0, 49}, {114, 0, 16}, {172, 0, 55}, {218, 0, 19}, {371, 0, 45}, {425, 0, 1}, {428, 0, 42}, {471, 0, 44}, {538, 0, 21}}},
		{"zipf99", "keys=64,ops=12,period=100,zipf=0.99", 1, []ev{{19, 0, 12}, {55, 0, 33}, {93, 0, 0}, {103, 0, 1}, {114, 0, 4}, {172, 0, 41}, {218, 0, 27}, {371, 0, 2}, {425, 0, 3}, {428, 0, 1}, {471, 0, 0}, {538, 0, 26}}},
		{"zipf99seed9", "keys=64,ops=12,period=100,zipf=0.99", 9, []ev{{40, 0, 22}, {214, 0, 18}, {231, 0, 11}, {233, 0, 42}, {361, 1, 5}, {494, 0, 0}, {600, 0, 10}, {675, 0, 6}, {803, 0, 6}, {1265, 0, 2}, {1300, 0, 52}, {1309, 0, 3}}},
		{"hot", "keys=64,ops=12,period=100,zipf=0.99,hot=0.5:300", 1, []ev{{19, 0, 12}, {55, 0, 33}, {93, 0, 0}, {103, 0, 1}, {114, 0, 4}, {172, 0, 41}, {218, 0, 27}, {371, 0, 34}, {425, 0, 35}, {428, 0, 33}, {471, 0, 32}, {538, 0, 58}}},
		{"burst", "keys=64,ops=12,period=100,burst=10:200:600", 1, []ev{{19, 0, 28}, {55, 0, 63}, {93, 0, 1}, {103, 0, 49}, {114, 0, 16}, {172, 0, 55}, {218, 0, 19}, {233, 0, 45}, {238, 0, 1}, {239, 0, 42}, {243, 0, 44}, {249, 0, 21}}},
		{"mix", "keys=64,ops=12,period=100,mix=40:30:30,scan=4", 1, []ev{{19, 0, 28}, {55, 2, 63}, {93, 0, 1}, {103, 0, 49}, {114, 0, 16}, {172, 1, 55}, {218, 1, 19}, {371, 2, 45}, {425, 1, 1}, {428, 0, 42}, {471, 2, 44}, {538, 0, 21}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := ParseSpec(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			got := NewGen(s, c.seed).Events(nil)
			if len(got) != len(c.want) {
				t.Fatalf("%d events, want %d", len(got), len(c.want))
			}
			for i, e := range got {
				w := c.want[i]
				if uint64(e.At) != w.at || e.Op.Kind != w.kind || e.Op.Key != w.key {
					t.Fatalf("event %d = {at %d, %v, key %d}, want {at %d, %v, key %d}",
						i, e.At, e.Op.Kind, e.Op.Key, w.at, w.kind, w.key)
				}
			}
		})
	}
}

// TestGenStreamAlignment pins the forked-stream property the goldens
// rely on: changing one workload axis leaves the draws on the others
// untouched.
func TestGenStreamAlignment(t *testing.T) {
	base, _ := ParseSpec("keys=256,ops=200,period=100")
	zipf, _ := ParseSpec("keys=256,ops=200,period=100,zipf=0.9")
	mixed, _ := ParseSpec("keys=256,ops=200,period=100,mix=40:30:30")
	be := NewGen(base, 3).Events(nil)
	ze := NewGen(zipf, 3).Events(nil)
	me := NewGen(mixed, 3).Events(nil)
	for i := range be {
		if be[i].At != ze[i].At || be[i].At != me[i].At {
			t.Fatalf("arrival %d diverges across specs: %d/%d/%d", i, be[i].At, ze[i].At, me[i].At)
		}
		if be[i].Op.Key != me[i].Op.Key {
			t.Fatalf("key %d diverges when only the mix changed: %d vs %d", i, be[i].Op.Key, me[i].Op.Key)
		}
		if be[i].Op.Kind != ze[i].Op.Kind {
			t.Fatalf("kind %d diverges when only the skew changed", i)
		}
	}
}

// TestGenZipfSkew checks the sampler actually skews: under theta=0.99
// the most popular key must dominate a uniform draw's share by a wide
// margin, and the arrival order must be strictly increasing.
func TestGenZipfSkew(t *testing.T) {
	s, _ := ParseSpec("keys=1024,ops=20000,period=10,zipf=0.99,mix=100:0:0")
	counts := make(map[uint64]int)
	var last uint64
	for _, e := range NewGen(s, 42).Events(nil) {
		if uint64(e.At) <= last {
			t.Fatalf("arrivals not strictly increasing at %d", e.At)
		}
		last = uint64(e.At)
		counts[e.Op.Key]++
	}
	if frac := float64(counts[0]) / 20000; frac < 0.05 {
		t.Fatalf("rank-0 key got %.3f of draws, want the Zipfian head (> 0.05)", frac)
	}
	uni, _ := ParseSpec("keys=1024,ops=20000,period=10,mix=100:0:0")
	uniCounts := make(map[uint64]int)
	for _, e := range NewGen(uni, 42).Events(nil) {
		uniCounts[e.Op.Key]++
	}
	if uniMax := maxCount(uniCounts); uniMax*3 > counts[0] {
		t.Fatalf("zipf head %d not clearly above uniform max %d", counts[0], uniMax)
	}
}

func maxCount(m map[uint64]int) int {
	max := 0
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// TestGenHotspotRotates checks the moving hotspot actually moves: with
// hot=0.5:N the head key in the first period differs from the head key
// after one rotation, and both map back to the same underlying rank.
func TestGenHotspotRotates(t *testing.T) {
	s, _ := ParseSpec("keys=100,ops=30000,period=10,zipf=0.99,hot=0.5:100000,mix=100:0:0")
	early := make(map[uint64]int)
	late := make(map[uint64]int)
	for _, e := range NewGen(s, 7).Events(nil) {
		if uint64(e.At) < 100000 {
			early[e.Op.Key]++
		} else if uint64(e.At) < 200000 {
			late[e.Op.Key]++
		}
	}
	eHead := argmax(early)
	lHead := argmax(late)
	if eHead == lHead {
		t.Fatalf("hotspot did not move: head key %d in both periods", eHead)
	}
	if want := (eHead + 50) % 100; lHead != want {
		t.Fatalf("late head = %d, want rotation of early head to %d", lHead, want)
	}
}

func argmax(m map[uint64]int) uint64 {
	bestK, bestV := uint64(0), -1
	for k, v := range m {
		if v > bestV || (v == bestV && k < bestK) {
			bestK, bestV = k, v
		}
	}
	return bestK
}

// TestGenBurstCompresses checks the flash crowd multiplies the arrival
// rate inside its window.
func TestGenBurstCompresses(t *testing.T) {
	s, _ := ParseSpec("keys=16,ops=20000,period=100,burst=10:100000:100000")
	inBurst, outBurst := 0, 0
	for _, e := range NewGen(s, 5).Events(nil) {
		t := uint64(e.At)
		switch {
		case t >= 100000 && t < 200000:
			inBurst++
		case t < 100000:
			outBurst++
		}
	}
	if outBurst == 0 || inBurst < 4*outBurst {
		t.Fatalf("burst window got %d arrivals vs %d in the same pre-burst span; want ~10x", inBurst, outBurst)
	}
}

// TestGenNilSpec checks the nil spec yields the default workload and the
// generator is reproducible.
func TestGenNilSpec(t *testing.T) {
	a := NewGen(nil, 0).Events(nil)
	b := NewGen(nil, 0).Events(nil)
	if len(a) != DefaultOps {
		t.Fatalf("nil spec emitted %d events, want %d", len(a), DefaultOps)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed generators diverge at event %d", i)
		}
	}
	for _, e := range a {
		if e.Op.Key >= DefaultKeys {
			t.Fatalf("key %d out of the default population", e.Op.Key)
		}
		if e.Op.Kind == KindScan {
			t.Fatal("default mix has no scans")
		}
	}
}

// TestSpecSeedOverridesRunSeed checks a workload script can pin its own
// stream.
func TestSpecSeedOverridesRunSeed(t *testing.T) {
	s, _ := ParseSpec("keys=64,ops=50,seed=99")
	a := NewGen(s, 1).Events(nil)
	b := NewGen(s, 2).Events(nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("spec seed did not override the run seed")
		}
	}
}
