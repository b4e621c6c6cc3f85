package policy

import (
	"encoding/json"
	"testing"

	"compmig/internal/advisor"
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/gid"
	"compmig/internal/mem"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

func newEngine(t *testing.T, spec string) *Engine {
	t.Helper()
	eng := sim.NewEngine(1)
	col := stats.NewCollector()
	e, err := New(spec, cost.Software(), mem.DefaultParams(), eng, col, 8, 1)
	if err != nil {
		t.Fatalf("New(%q): %v", spec, err)
	}
	return e
}

func TestSpecParsing(t *testing.T) {
	good := map[string]string{
		"static:rpc":  "static:rpc",
		"static:cm":   "static:cm",
		"static:sm":   "static:sm",
		"static:om":   "static:om",
		"STATIC:SM":   "static:sm",
		"costmodel":   "costmodel",
		"bandit":      "bandit(eps=0.05)",
		"bandit:0.25": "bandit(eps=0.25)",
	}
	for spec, name := range good {
		if got := newEngine(t, spec).Name(); got != name {
			t.Errorf("New(%q).Name() = %q, want %q", spec, got, name)
		}
	}
	for _, spec := range []string{"", "static:", "static:tcp", "bandit:2", "bandit:x", "greedy"} {
		eng := sim.NewEngine(1)
		if _, err := New(spec, cost.Software(), mem.DefaultParams(), eng, stats.NewCollector(), 8, 1); err == nil {
			t.Errorf("New(%q) succeeded, want error", spec)
		}
	}
}

func TestStaticMechanism(t *testing.T) {
	cases := []struct {
		spec string
		mech core.Mechanism
		ok   bool
	}{
		{"static:om", core.ObjMigrate, true},
		{"static:OBJ", core.ObjMigrate, true},
		{"static:cm", core.Migrate, true},
		{"costmodel", 0, false},
		{"bandit:0.1", 0, false},
		{"static:nope", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		mech, ok := StaticMechanism(c.spec)
		if ok != c.ok || (ok && mech != c.mech) {
			t.Errorf("StaticMechanism(%q) = %v, %v; want %v, %v", c.spec, mech, ok, c.mech, c.ok)
		}
	}
}

// TestStaticDecides verifies the static mode always returns its pin and
// counts decisions.
func TestStaticDecides(t *testing.T) {
	e := newEngine(t, "static:cm")
	s := e.NewSite("site", advisor.SiteProfile{AccessesPerVisit: 1, ChainLength: 1})
	for i := 0; i < 5; i++ {
		if m := s.Begin(0, gid.GID(1)); m != core.Migrate {
			t.Fatalf("decision %d = %v, want Migrate", i, m)
		}
		s.End(0, core.Migrate, 100)
	}
	if d := s.decisions; d[core.Migrate] != 5 {
		t.Fatalf("decisions = %v, want 5 under Migrate", d)
	}
}

// TestEngineDecisionsSumSites checks the engine-wide decision counts are
// the sum over its sites.
func TestEngineDecisionsSumSites(t *testing.T) {
	e := newEngine(t, "static:rpc")
	for i, name := range []string{"a", "b"} {
		s := e.NewSite(name, advisor.SiteProfile{AccessesPerVisit: 1, ChainLength: 1})
		for j := 0; j <= i; j++ {
			s.End(0, s.Begin(0, gid.GID(1)), 10)
		}
	}
	if d := e.Decisions(); d != [4]uint64{core.RPC: 3} {
		t.Fatalf("decisions = %v, want 3 under RPC", d)
	}
}

// TestLiveProfileReplacesPriors drives the observer hooks and checks the
// site's live profile converges to the observed run and chain lengths.
func TestLiveProfileReplacesPriors(t *testing.T) {
	e := newEngine(t, "costmodel")
	s := e.NewSite("site", advisor.SiteProfile{AccessesPerVisit: 10, ChainLength: 7})
	g1, g2 := gid.GID(1), gid.GID(2)
	for op := 0; op < 4; op++ {
		m := s.Begin(0, g1)
		// Each op: 2 hops (g1 then g2), each object touched twice.
		e.MigrateHop(0, g1, 9)
		e.Access(0, g1)
		e.MigrateHop(0, g2, 9)
		e.Access(0, g2)
		s.End(0, m, 500)
	}
	p := s.Profile()
	if p.ChainLength != 2 {
		t.Errorf("ChainLength = %v, want 2", p.ChainLength)
	}
	// 4 accesses per op (2 per object visit counting the hop + call),
	// 2 visits per op => 2 accesses per visit.
	if p.AccessesPerVisit != 2 {
		t.Errorf("AccessesPerVisit = %v, want 2", p.AccessesPerVisit)
	}
}

// TestBanditDeterministic: two engines with the same seed make the same
// decision sequence; a different seed is allowed to differ.
func TestBanditDeterministic(t *testing.T) {
	run := func(seed uint64) []core.Mechanism {
		eng := sim.NewEngine(seed)
		e, err := New("bandit:0.5", cost.Software(), mem.DefaultParams(), eng, stats.NewCollector(), 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		s := e.NewSite("site", advisor.SiteProfile{AccessesPerVisit: 1, ChainLength: 1})
		var seq []core.Mechanism
		for i := 0; i < 50; i++ {
			m := s.Begin(0, gid.GID(1))
			seq = append(seq, m)
			// Feed distinct mean costs so exploitation has a gradient.
			s.End(0, m, uint64(100*(int(m)+1)))
		}
		return seq
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical seeds: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestBanditConverges: with epsilon 0 after the forced exploration
// round, the bandit exploits the arm with the lowest observed cycles.
func TestBanditConverges(t *testing.T) {
	e := newEngine(t, "bandit:0")
	s := e.NewSite("site", advisor.SiteProfile{AccessesPerVisit: 1, ChainLength: 1})
	costs := map[core.Mechanism]uint64{core.RPC: 900, core.Migrate: 500, core.SharedMem: 150}
	for i := 0; i < 20; i++ {
		m := s.Begin(0, gid.GID(1))
		s.End(0, m, costs[m])
	}
	d := s.decisions
	// 3 forced exploration plays, then every pick is SM.
	if d[core.SharedMem] != 18 || d[core.RPC] != 1 || d[core.Migrate] != 1 {
		t.Fatalf("decisions = %v, want RPC:1 CM:1 SM:18", d)
	}
}

// TestCostModelPrefersSMByDefault: under the software model's prices the
// hardware-priced shared-memory substrate wins even with the pessimistic
// all-miss prior, which is what makes costmodel track static:sm on the
// paper's workloads.
func TestCostModelPrefersSMByDefault(t *testing.T) {
	e := newEngine(t, "costmodel")
	s := e.NewSite("site", advisor.SiteProfile{
		AccessesPerVisit: 1, ReplyWords: 1, ShortMethod: true, ChainLength: 4,
	})
	rpc, cm, sm := s.Estimates()
	if !(sm < cm && cm < rpc) {
		t.Fatalf("estimates rpc=%.0f cm=%.0f sm=%.0f, want sm < cm < rpc", rpc, cm, sm)
	}
	if m := s.Begin(0, gid.GID(1)); m != core.SharedMem {
		t.Fatalf("first decision = %v, want SharedMem", m)
	}
}

// TestEstimateSMRespondsToPressure: the shared-memory estimate grows
// with the sampled miss and invalidation rates.
func TestEstimateSMRespondsToPressure(t *testing.T) {
	p := advisor.SiteProfile{AccessesPerVisit: 4}
	model, mp := cost.Software(), mem.DefaultParams()
	quiet := EstimateSM(model, mp, p, 0.05, 0)
	missy := EstimateSM(model, mp, p, 0.9, 0)
	stormy := EstimateSM(model, mp, p, 0.9, 0.5)
	if !(quiet < missy && missy < stormy) {
		t.Fatalf("EstimateSM quiet=%.0f missy=%.0f stormy=%.0f, want increasing", quiet, missy, stormy)
	}
}

// TestSampling: the engine folds collector coherence deltas into its
// miss-rate estimate lazily, without touching the event queue.
func TestSampling(t *testing.T) {
	e := newEngine(t, "costmodel")
	if e.missRate != 1.0 {
		t.Fatalf("prior miss rate = %v, want 1.0", e.missRate)
	}
	e.col.CacheHits = 90
	e.col.CacheMisses = 10
	e.sample()
	if e.missRate != 0.1 {
		t.Fatalf("sampled miss rate = %v, want 0.1", e.missRate)
	}
	before := e.missRate
	// Within the sampling period the estimate must not move.
	e.col.CacheMisses = 1000
	e.sample()
	if e.missRate != before {
		t.Fatalf("miss rate moved within sampling period")
	}
}

// TestStatsDump: the JSON dump round-trips and carries the live profile.
func TestStatsDump(t *testing.T) {
	e := newEngine(t, "static:rpc")
	s := e.NewSite("app.op", advisor.SiteProfile{AccessesPerVisit: 3, ChainLength: 2})
	m := s.Begin(0, gid.GID(5))
	e.Access(0, gid.GID(5))
	s.End(0, m, 800)
	data, err := json.Marshal(e.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("dump does not round-trip: %v", err)
	}
	if st.Policy != "static:rpc" || len(st.Sites) != 1 || st.Sites[0].Name != "app.op" {
		t.Fatalf("unexpected dump: %+v", st)
	}
	if st.Sites[0].Ops != 1 || st.Sites[0].Decisions["RPC"] != 1 {
		t.Fatalf("site stats wrong: %+v", st.Sites[0])
	}
}
