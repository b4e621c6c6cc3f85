package advisor

import (
	"strings"
	"testing"
	"testing/quick"

	"compmig/internal/core"
	"compmig/internal/cost"
)

func base() SiteProfile {
	return SiteProfile{
		AccessesPerVisit: 1,
		ArgWords:         2,
		ReplyWords:       2,
		ContWords:        8,
		ChainLength:      4,
	}
}

func TestRepeatedAccessPrefersMigration(t *testing.T) {
	a := New(cost.Software())
	p := base()
	p.AccessesPerVisit = 5
	if got := a.Choose(p); got != core.Migrate {
		t.Fatalf("5 accesses/visit chose %v: %s", got, a.Explain(p))
	}
}

func TestHugeFramePrefersRPC(t *testing.T) {
	a := New(cost.Software())
	p := base()
	p.AccessesPerVisit = 1
	p.ShortMethod = true
	p.ContWords = 4096 // a frame the size of a small stack
	if got := a.Choose(p); got != core.RPC {
		t.Fatalf("huge frame chose %v: %s", got, a.Explain(p))
	}
}

func TestCrossoverExistsAndIsSmall(t *testing.T) {
	a := New(cost.Software())
	p := base()
	p.ShortMethod = true
	n := a.CrossoverAccesses(p, 100)
	if n < 0 {
		t.Fatal("no crossover found")
	}
	// With an 8-word frame, migration should win within a few accesses —
	// the §2 story that repeated access makes shipping the frame cheap.
	if n > 4 {
		t.Errorf("crossover at %v accesses, expected <= 4", n)
	}
}

func TestEstimatesMonotone(t *testing.T) {
	a := New(cost.Software())
	if err := quick.Check(func(n8 uint8, extra uint16) bool {
		p := base()
		p.AccessesPerVisit = float64(n8%30) + 1
		rpc1 := a.EstimateRPC(p)
		p.AccessesPerVisit++
		rpc2 := a.EstimateRPC(p)
		if rpc2 <= rpc1 {
			return false // RPC cost grows with run length
		}
		q := base()
		mig1 := a.EstimateMigrate(q)
		q.ContWords += uint64(extra % 1000)
		mig2 := a.EstimateMigrate(q)
		return mig2 >= mig1 // migration cost grows with frame size
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHardwareShiftsCrossoverDown(t *testing.T) {
	p := base()
	p.ShortMethod = true
	p.ContWords = 64
	sw := New(cost.Software()).CrossoverAccesses(p, 1000)
	hw := New(cost.Hardware()).CrossoverAccesses(p, 1000)
	if sw < 0 || hw < 0 {
		t.Fatalf("crossovers not found: sw=%v hw=%v", sw, hw)
	}
	// Cheaper messaging makes shipping a fat frame viable earlier (copy
	// and marshal costs scale with size and shrink under HW support).
	if hw > sw {
		t.Errorf("hardware crossover (%v) above software (%v)", hw, sw)
	}
}

// TestProfilerDrivesDecision feeds the advisor the profile a call site's
// observed runs would produce: one access per visit, then a mean of 9.8
// after the workload shifts to runs of 12 (10 visits of 1, 40 of 12).
func TestProfilerDrivesDecision(t *testing.T) {
	a := New(cost.Software())
	prof := SiteProfile{
		AccessesPerVisit: 1,
		ArgWords:         2, ReplyWords: 2, ContWords: 8,
		ShortMethod: true, ChainLength: 1,
	}
	if a.Choose(prof) != core.RPC {
		t.Fatalf("single-access profile chose migration: %s", a.Explain(prof))
	}
	prof.AccessesPerVisit = float64(10*1+40*12) / 50
	if a.Choose(prof) != core.Migrate {
		t.Fatalf("long-run profile chose RPC: %s", a.Explain(prof))
	}
}

func TestExplain(t *testing.T) {
	a := New(cost.Software())
	out := a.Explain(base())
	if !strings.Contains(out, "rpc=") || !strings.Contains(out, "migrate=") {
		t.Errorf("explain output %q", out)
	}
}
