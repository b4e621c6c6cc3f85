package countnet

import (
	"testing"
	"testing/quick"
)

func TestBitonic8Shape(t *testing.T) {
	stages := Bitonic(8).Stages
	if len(stages) != 6 {
		t.Fatalf("Bitonic[8] depth = %d, want 6 (the paper's six-stage pipeline)", len(stages))
	}
	total := 0
	for si, st := range stages {
		if len(st) != 4 {
			t.Errorf("stage %d has %d balancers, want 4", si, len(st))
		}
		total += len(st)
		// Each stage must touch every wire exactly once.
		seen := make([]int, 8)
		for _, b := range st {
			if b.A == b.B {
				t.Errorf("degenerate balancer %+v", b)
			}
			seen[b.A]++
			seen[b.B]++
		}
		for w, c := range seen {
			if c != 1 {
				t.Errorf("stage %d touches wire %d %d times", si, w, c)
			}
		}
	}
	if total != 24 {
		t.Fatalf("Bitonic[8] has %d balancers, want 24", total)
	}
}

func TestBitonicWidths(t *testing.T) {
	// Depth of Bitonic[2^k] is k(k+1)/2; balancers per stage = w/2.
	for _, w := range []int{2, 4, 8, 16, 32} {
		k := 0
		for 1<<k < w {
			k++
		}
		stages := Bitonic(w).Stages
		if len(stages) != k*(k+1)/2 {
			t.Errorf("Bitonic[%d] depth = %d, want %d", w, len(stages), k*(k+1)/2)
		}
		for si, st := range stages {
			if len(st) != w/2 {
				t.Errorf("Bitonic[%d] stage %d width = %d, want %d", w, si, len(st), w/2)
			}
		}
	}
}

func TestBitonicRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, 1, 3, 6, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d accepted", w)
				}
			}()
			Bitonic(w)
		}()
	}
}

// TestStepProperty drives the sequential oracle with tokens on arbitrary
// input wires and checks the counting-network step property: output wire
// exit counts are a "staircase" — wire i gets ceil((m-i)/w) tokens.
func TestStepProperty(t *testing.T) {
	if err := quick.Check(func(seedWires []uint8) bool {
		s := newSequential(8)
		for _, sw := range seedWires {
			s.traverse(int(sw) % 8)
		}
		m := len(seedWires)
		for i, c := range s.counts {
			want := (m - i + 7) / 8
			if want < 0 {
				want = 0
			}
			if c != want {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialValuesGapFree checks that m traversals draw exactly the
// values 0..m-1, each once — the defining property of shared counting.
func TestSequentialValuesGapFree(t *testing.T) {
	s := newSequential(8)
	const m = 100
	seen := make([]bool, m)
	for i := 0; i < m; i++ {
		_, v := s.traverse(i % 5) // lopsided input distribution
		if v < 0 || v >= m || seen[v] {
			t.Fatalf("token %d drew value %d (dup or out of range)", i, v)
		}
		seen[v] = true
	}
}

func TestStepPropertyWidth16(t *testing.T) {
	s := newSequential(16)
	for i := 0; i < 777; i++ {
		s.traverse(i % 3)
	}
	for i, c := range s.counts {
		want := (777 - i + 15) / 16
		if c != want {
			t.Fatalf("wire %d count = %d, want %d", i, c, want)
		}
	}
}

// sequential is a host-level counting network: the oracle the tests
// check the topology (step property) and the distributed
// implementations against.
type sequential struct {
	layout  *Layout
	toggles [][]bool // per stage, per balancer
	counts  []int    // tokens that exited each rank
	next    []int    // next value per rank
}

func newSequential(width int) *sequential {
	l := Bitonic(width)
	s := &sequential{layout: l}
	for _, st := range l.Stages {
		s.toggles = append(s.toggles, make([]bool, len(st)))
	}
	s.counts = make([]int, width)
	s.next = make([]int, width)
	for i := range s.next {
		s.next[i] = i
	}
	return s
}

// traverse pushes one token in on the given wire and returns (exit rank,
// counter value).
func (s *sequential) traverse(wire int) (int, int) {
	for si, st := range s.layout.Stages {
		for bi, b := range st {
			if b.A == wire || b.B == wire {
				if s.toggles[si][bi] {
					wire = b.B
				} else {
					wire = b.A
				}
				s.toggles[si][bi] = !s.toggles[si][bi]
				break
			}
		}
	}
	rank := s.layout.RankOf[wire]
	s.counts[rank]++
	v := s.next[rank]
	s.next[rank] += len(s.next)
	return rank, v
}
