// Package policy is the runtime half of the paper's §6 open direction:
// an online, per-call-site, per-object selector that chooses among the
// remote-access mechanisms — RPC, data migration through cache-coherent
// shared memory, and computation migration — while the program runs.
//
// Where internal/advisor makes the choice offline from a hand-fed
// profile, a policy Engine is wired into the live runtime: the core
// dispatch paths report every remote access to it (run lengths, chain
// lengths, record sizes, all in simulated time), the shared-memory
// substrate supplies contention and invalidation pressure, and each
// high-level operation consults the engine for the mechanism to use.
//
// Three policies are provided:
//
//   - static:<mech> pins every decision to one mechanism and reproduces
//     the corresponding scheme-based run exactly — the engine observes
//     but never perturbs the simulation, so the rendered tables are
//     byte-identical (the A/B identity contract).
//   - costmodel runs the advisor's Table 5 arithmetic on the live
//     statistics, plus an analogous hardware-priced estimate for shared
//     memory fed by the sampled miss and invalidation rates.
//   - bandit is an epsilon-greedy bandit over the observed cycles each
//     mechanism actually cost at this site, with a deterministic PRNG
//     derived from the run seed.
//
// All engine state is host-side: decisions take zero simulated time and
// consume no events and no draws from the engine's PRNG stream, so a
// policy that happens to always choose mechanism M simulates the exact
// same machine as a run hard-wired to M.
package policy

import (
	"fmt"
	"strconv"
	"strings"

	"compmig/internal/advisor"
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/gid"
	"compmig/internal/mem"
	"compmig/internal/network"
	"compmig/internal/profile"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// Mode is the decision procedure an Engine runs.
type Mode int

const (
	// Static always returns the configured mechanism.
	Static Mode = iota
	// CostModel picks the cheapest mechanism under the advisor's cost
	// model evaluated on live statistics.
	CostModel
	// Bandit picks by epsilon-greedy selection over observed cycle costs.
	Bandit
)

// adaptiveMechs is the candidate set adaptive policies choose from: the
// paper's three mechanisms. Emerald-style whole-object migration stays
// available through static:om but is not an adaptive candidate (the cost
// model has no estimator for ping-pong object movement).
var adaptiveMechs = []core.Mechanism{core.RPC, core.Migrate, core.SharedMem}

// banditSalt decorrelates the bandit's exploration stream from the
// engine's workload PRNG without consuming any draws from it.
const banditSalt = 0x9e3779b97f4a7c15

// Engine is one run's mechanism selector. It is driven from exactly one
// simulation (the simulator runs one goroutine at a time), so its state
// needs no synchronization; the profile counters it exports are atomics.
type Engine struct {
	mode       Mode
	staticMech core.Mechanism
	eps        float64 // bandit exploration rate

	adv   *advisor.Advisor
	model cost.Model
	mp    mem.Params

	eng *sim.Engine
	col *stats.Collector
	rng *sim.PRNG // bandit exploration; seeded from the run seed

	// speeds[p] is processor p's slowdown factor (1 = full speed), set by
	// SetSpeeds on heterogeneous machines. nil means a uniform machine.
	speeds []float64

	sites []*Site

	// open[p] is the site of the operation currently running on origin
	// processor p, so core access hooks can attribute wire observations.
	open []*Site

	// origin[p] tracks the consecutive-access run in flight on p: the
	// object being accessed and how many accesses it has received.
	origin []originState

	// Sampled shared-memory pressure, refreshed lazily in simulated time
	// from the collector's coherence counters. missRate starts at the
	// pessimistic prior 1.0 (every access misses) until shared memory has
	// actually been exercised.
	lastSample   sim.Time
	lastHits     uint64
	lastMisses   uint64
	lastInval    uint64
	missRate     float64
	invalRate    float64 // invalidations per shared-memory line access
	sampledOnce  bool
	samplePeriod sim.Time
}

// originState tracks the consecutive-access run of one origin processor.
type originState struct {
	last   gid.GID
	run    uint64
	opHops uint64 // migration hops observed during the open operation
}

// New parses spec and builds an engine for one run. Accepted specs:
//
//	static:rpc | static:cm | static:sm | static:om
//	costmodel
//	bandit | bandit:<epsilon>
//
// model prices the software messaging paths, mp the shared-memory
// substrate; seed derives the bandit's private PRNG (no draws are taken
// from the simulation's own stream).
func New(spec string, model cost.Model, mp mem.Params, eng *sim.Engine, col *stats.Collector, nprocs int, seed uint64) (*Engine, error) {
	e := &Engine{
		model: model, mp: mp, eng: eng, col: col,
		adv:          advisor.New(model),
		rng:          sim.NewPRNG(seed ^ banditSalt),
		eps:          0.05,
		open:         make([]*Site, nprocs),
		origin:       make([]originState, nprocs),
		missRate:     1.0,
		samplePeriod: 500,
	}
	s := strings.ToLower(strings.TrimSpace(spec))
	switch {
	case strings.HasPrefix(s, "static:"):
		e.mode = Static
		switch strings.TrimPrefix(s, "static:") {
		case "rpc":
			e.staticMech = core.RPC
		case "cm", "cp", "migrate":
			e.staticMech = core.Migrate
		case "sm", "shm", "sharedmem":
			e.staticMech = core.SharedMem
		case "om", "obj", "objmigrate":
			e.staticMech = core.ObjMigrate
		default:
			return nil, fmt.Errorf("policy: unknown mechanism in %q (want static:rpc, static:cm, static:sm, or static:om)", spec)
		}
	case s == "costmodel":
		e.mode = CostModel
	case s == "bandit":
		e.mode = Bandit
	case strings.HasPrefix(s, "bandit:"):
		e.mode = Bandit
		eps, err := strconv.ParseFloat(strings.TrimPrefix(s, "bandit:"), 64)
		if err != nil || eps < 0 || eps >= 1 {
			return nil, fmt.Errorf("policy: bad bandit epsilon in %q (want bandit:<0..1>)", spec)
		}
		e.eps = eps
	default:
		return nil, fmt.Errorf("policy: unknown policy %q (want static:<mech>, costmodel, or bandit)", spec)
	}
	return e, nil
}

// Validate reports whether spec is a well-formed policy spec, without
// building an engine. CLIs use it to reject bad flags before a run.
func Validate(spec string) error {
	_, err := New(spec, cost.Software(), mem.DefaultParams(), nil, nil, 0, 0)
	return err
}

// StaticMechanism reports the mechanism a well-formed static:<mech>
// spec pins every operation to; ok is false for any other spec.
func StaticMechanism(spec string) (mech core.Mechanism, ok bool) {
	e, err := New(spec, cost.Software(), mem.DefaultParams(), nil, nil, 0, 0)
	if err != nil || e.mode != Static {
		return 0, false
	}
	return e.staticMech, true
}

// Name renders the policy for table rows and result labels.
func (e *Engine) Name() string {
	switch e.mode {
	case Static:
		return "static:" + strings.ToLower(e.staticMech.String())
	case CostModel:
		return "costmodel"
	default:
		return fmt.Sprintf("bandit(eps=%.2g)", e.eps)
	}
}

// SetSpeeds hands the engine the machine's per-processor slowdown
// factors (1 = full speed), the same profile the driver applied with
// sim.Proc.SetSpeed. The cost model then prices each mechanism at the
// speed of the processor that executes the visit — the target object's
// home under RPC and migration, the requester under shared memory.
// Without it every processor is assumed full speed, which leaves the
// selection on a uniform machine untouched.
func (e *Engine) SetSpeeds(factors []float64) {
	e.speeds = append([]float64{}, factors...)
}

// speedOf returns processor p's slowdown factor (1 when unknown).
func (e *Engine) speedOf(p int) float64 {
	if p < 0 || p >= len(e.speeds) || e.speeds[p] <= 1 {
		return 1
	}
	return e.speeds[p]
}

// NewSite registers one annotated call site. base carries what a
// compiler would know statically — record sizes and the short-method
// flag — plus priors for the profiled quantities (run length n, chain
// length m); live observations replace the priors as they arrive.
func (e *Engine) NewSite(name string, base advisor.SiteProfile) *Site {
	s := &Site{e: e, name: name, base: base}
	e.sites = append(e.sites, s)
	return s
}

// Decisions sums how many times each mechanism was chosen across the
// engine's sites, indexed by core.Mechanism.
func (e *Engine) Decisions() [4]uint64 {
	var out [4]uint64
	for _, s := range e.sites {
		for m, n := range s.decisions {
			out[m] += n
		}
	}
	return out
}

// Site is one annotated call site: the unit of decision-making and of
// statistics collection.
type Site struct {
	e    *Engine
	name string
	base advisor.SiteProfile

	// Live wire statistics, accumulated by the core access hooks.
	visits     uint64 // object visits (consecutive-access runs)
	accesses   uint64 // individual remote accesses across those visits
	ops        uint64 // completed high-level operations
	hops       uint64 // migration hops across those operations
	hopOps     uint64 // ops that made at least one hop (CM ops)
	argWords   uint64 // total request payload words observed
	replyWords uint64 // total reply payload words observed
	contWords  uint64 // total continuation payload words observed
	contHops   uint64 // hops contributing to contWords

	// Per-mechanism outcome statistics (the bandit's arms).
	tries     [4]uint64 // completed ops per mechanism
	cycleSum  [4]uint64 // total observed cycles per mechanism
	decisions [4]uint64 // Decide outcomes per mechanism
}

// Begin opens one high-level operation at this site on origin processor
// proc, whose first remote target is g, and returns the mechanism the
// operation must use. All bookkeeping is host-side: zero simulated time.
func (s *Site) Begin(proc int, g gid.GID) core.Mechanism {
	e := s.e
	if e.open[proc] != nil {
		e.flushRun(proc)
	}
	e.open[proc] = s
	e.origin[proc].opHops = 0
	m := s.decide(proc, g)
	s.decisions[m]++
	decisionCounters[m].Add(1)
	return m
}

// End closes the operation Begin opened, recording the cycles it took
// under the mechanism it ran with.
func (s *Site) End(proc int, m core.Mechanism, cycles uint64) {
	e := s.e
	e.flushRun(proc)
	e.open[proc] = nil
	if e.origin[proc].opHops > 0 {
		s.hopOps++
		e.origin[proc].opHops = 0
	}
	s.ops++
	s.tries[m]++
	s.cycleSum[m] += cycles
}

// decide picks the mechanism for one operation starting on processor
// proc whose first target is g.
func (s *Site) decide(proc int, g gid.GID) core.Mechanism {
	e := s.e
	switch e.mode {
	case Static:
		return e.staticMech
	case CostModel:
		e.sample()
		rpc, cm, sm := s.Estimates()
		// Add the user compute back in, priced at the speed of the
		// processor that executes it: RPC handlers and migrated
		// continuations run at the target's home, shared-memory accesses
		// run the user code on the requester. On a uniform machine every
		// factor is 1 and the work term cancels — the comparison reduces
		// to the advisor's overhead arithmetic.
		p := s.Profile()
		chain := p.ChainLength
		if chain < 1 {
			chain = 1
		}
		work := p.WorkCycles * chain
		home, origin := e.speedOf(g.Home()), e.speedOf(proc)
		rpc = (rpc + work) * home
		cm = (cm + work) * home
		sm = (sm + work) * origin
		best, bestCost := core.RPC, rpc
		if cm < bestCost {
			best, bestCost = core.Migrate, cm
		}
		if sm < bestCost {
			best = core.SharedMem
		}
		return best
	default: // Bandit
		for _, m := range adaptiveMechs {
			if s.tries[m] == 0 {
				return m // play every arm once before exploiting
			}
		}
		if e.rng.Float64() < e.eps {
			return adaptiveMechs[e.rng.Intn(len(adaptiveMechs))]
		}
		best, bestMean := adaptiveMechs[0], meanCycles(s.cycleSum[adaptiveMechs[0]], s.tries[adaptiveMechs[0]])
		for _, m := range adaptiveMechs[1:] {
			if mc := meanCycles(s.cycleSum[m], s.tries[m]); mc < bestMean {
				best, bestMean = m, mc
			}
		}
		return best
	}
}

func meanCycles(sum, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Profile returns the site's live profile: the static base with every
// profiled quantity replaced by its observed mean once data exists.
func (s *Site) Profile() advisor.SiteProfile {
	// Observed payloads include the fixed method/linkage words the
	// advisor adds back itself, so the base record sizes (which exclude
	// them) are kept; the run-length and chain statistics are the
	// profiled part.
	p := s.base
	if s.visits > 0 {
		p.AccessesPerVisit = float64(s.accesses) / float64(s.visits)
	}
	// Chain length averages over the ops that actually hopped: shared-
	// memory ops make no hops at all, and counting them would drag the
	// estimate of "how long would the chain be under CM" toward zero.
	if s.hopOps > 0 {
		p.ChainLength = float64(s.hops) / float64(s.hopOps)
	}
	if s.contHops > 0 {
		w := s.contWords / s.contHops
		// Strip the migrate header the advisor adds back (cont id +
		// linkage + target gid = 5 words + network header).
		if over := uint64(5) + network.HeaderWords; w > over {
			p.ContWords = w - over
		}
	}
	return p
}

// Estimates returns the predicted cycles for one operation at this site
// under RPC, computation migration, and shared memory, from the live
// profile and sampled memory pressure. Estimates are per object visit,
// scaled to the operation's observed chain length.
func (s *Site) Estimates() (rpc, cm, sm float64) {
	e := s.e
	p := s.Profile()
	chain := p.ChainLength
	if chain < 1 {
		chain = 1
	}
	// Advisor estimates are per visit; an operation makes chain visits.
	rpc = e.adv.EstimateRPC(p) * chain
	cm = e.adv.EstimateMigrate(p) * chain
	sm = e.estimateSMVisit(p) * chain
	return rpc, cm, sm
}

// estimateSMVisit prices one object visit (n line accesses) through the
// hardware shared-memory substrate: a hit costs the cache lookup; a miss
// pays a request/data round trip through the home directory; and under
// write sharing each access additionally forces its share of
// invalidation rounds. The miss and invalidation rates are the sampled
// live values (prior: every access misses, nobody invalidates).
func (e *Engine) estimateSMVisit(p advisor.SiteProfile) float64 {
	n := p.AccessesPerVisit
	if n < 1 {
		n = 1
	}
	m := e.model
	mp := e.mp
	hit := float64(mp.HitCycles)
	miss := float64(2*m.Transit(1)) + // request out, data back
		float64(2*mp.CtrlCycles) + // controller handling each way
		float64(mp.DirCycles+mp.MemCycles+mp.InstallCyc) +
		hit
	inval := float64(2*m.Transit(1)) + float64(2*mp.CtrlCycles) + float64(mp.DirCycles)
	perAccess := hit + e.missRate*miss + e.invalRate*inval
	return n * perAccess
}

// sample refreshes the shared-memory pressure estimates from the
// collector's coherence counters. It runs at most once per samplePeriod
// of simulated time and is entirely host-side (no events, no cycles).
func (e *Engine) sample() {
	now := e.eng.Now()
	if e.sampledOnce && now < e.lastSample+e.samplePeriod {
		return
	}
	hits, misses, inval := e.col.CacheHits, e.col.CacheMisses, e.col.Invalidations
	dh, dm, di := hits-e.lastHits, misses-e.lastMisses, inval-e.lastInval
	if acc := dh + dm; acc > 0 {
		newMiss := float64(dm) / float64(acc)
		newInval := float64(di) / float64(acc)
		if !e.sampledOnce {
			e.missRate, e.invalRate = newMiss, newInval
		} else {
			// Exponentially weighted so bursts of invalidation pressure
			// show up quickly but a single quiet window does not erase
			// the history.
			const alpha = 0.3
			e.missRate += alpha * (newMiss - e.missRate)
			e.invalRate += alpha * (newInval - e.invalRate)
		}
		e.sampledOnce = true
	}
	e.lastSample = now
	e.lastHits, e.lastMisses, e.lastInval = hits, misses, inval
}

// flushRun folds the consecutive-access run in flight on proc into the
// statistics of the site that owns the open operation.
func (e *Engine) flushRun(proc int) {
	o := &e.origin[proc]
	if o.run == 0 {
		return
	}
	if s := e.open[proc]; s != nil {
		s.visits++
		s.accesses += o.run
	}
	o.last, o.run = gid.Nil, 0
}

// touch records one remote access to g from origin proc, extending or
// starting the consecutive-access run.
func (e *Engine) touch(proc int, g gid.GID) {
	if proc < 0 || proc >= len(e.origin) {
		return
	}
	o := &e.origin[proc]
	if o.run > 0 && o.last == g {
		o.run++
	} else {
		e.flushRun(proc)
		o.last, o.run = g, 1
	}
}

// Engine implements core.AccessObserver; the runtime invokes these hooks
// on its dispatch paths. All three are host-side only.

// RemoteCall records one RPC request/reply pair from origin to object g.
func (e *Engine) RemoteCall(origin int, g gid.GID, reqWords, replyWords int, short bool) {
	e.touch(origin, g)
	if s := e.siteOf(origin); s != nil {
		s.argWords += uint64(reqWords)
		s.replyWords += uint64(replyWords)
	}
}

// MigrateHop records one computation-migration hop of the operation
// whose reply linkage lives on origin, toward object g.
func (e *Engine) MigrateHop(origin int, g gid.GID, contWords int) {
	e.touch(origin, g)
	if s := e.siteOf(origin); s != nil {
		s.hops++
		s.contHops++
		s.contWords += uint64(contWords)
		e.origin[origin].opHops++
	}
}

// ObjectPull records one Emerald-style whole-object move to origin as an
// access to g.
func (e *Engine) ObjectPull(origin int, g gid.GID, stateWords int) {
	e.touch(origin, g)
}

func (e *Engine) siteOf(origin int) *Site {
	if origin < 0 || origin >= len(e.open) {
		return nil
	}
	return e.open[origin]
}

// decisionCounters are the process-wide decision counters surfaced by
// the -profile flag, indexed by mechanism.
var decisionCounters = [...]*profile.Section{
	core.RPC:        profile.PolicyRPC,
	core.Migrate:    profile.PolicyCM,
	core.SharedMem:  profile.PolicySM,
	core.ObjMigrate: profile.PolicyOM,
}

// SiteStats is the JSON form of one site's live profile, consumable by
// cmd/advise -from-stats for offline cross-checking.
type SiteStats struct {
	Name             string             `json:"name"`
	Ops              uint64             `json:"ops"`
	Visits           uint64             `json:"visits"`
	AccessesPerVisit float64            `json:"accesses_per_visit"`
	ChainLength      float64            `json:"chain_length"`
	ArgWords         uint64             `json:"arg_words"`
	ReplyWords       uint64             `json:"reply_words"`
	ContWords        uint64             `json:"cont_words"`
	ShortMethod      bool               `json:"short_method"`
	Decisions        map[string]uint64  `json:"decisions"`
	MeanCycles       map[string]float64 `json:"mean_cycles"`
}

// Stats is the engine's dumpable state.
type Stats struct {
	Policy    string      `json:"policy"`
	MissRate  float64     `json:"sm_miss_rate"`
	InvalRate float64     `json:"sm_inval_rate"`
	Sites     []SiteStats `json:"sites"`
}

// Stats snapshots the engine's live statistics.
func (e *Engine) Stats() Stats {
	st := Stats{Policy: e.Name(), MissRate: e.missRate, InvalRate: e.invalRate}
	for _, s := range e.sites {
		p := s.Profile()
		ss := SiteStats{
			Name:             s.name,
			Ops:              s.ops,
			Visits:           s.visits,
			AccessesPerVisit: p.AccessesPerVisit,
			ChainLength:      p.ChainLength,
			ArgWords:         p.ArgWords,
			ReplyWords:       p.ReplyWords,
			ContWords:        p.ContWords,
			ShortMethod:      p.ShortMethod,
			Decisions:        map[string]uint64{},
			MeanCycles:       map[string]float64{},
		}
		for _, m := range []core.Mechanism{core.RPC, core.Migrate, core.SharedMem, core.ObjMigrate} {
			if s.decisions[m] > 0 {
				ss.Decisions[m.String()] = s.decisions[m]
			}
			if s.tries[m] > 0 {
				ss.MeanCycles[m.String()] = meanCycles(s.cycleSum[m], s.tries[m])
			}
		}
		st.Sites = append(st.Sites, ss)
	}
	return st
}

// EstimateSM exposes the shared-memory visit estimator for offline use
// (cmd/advise -from-stats): predicted cycles for one visit of
// p.AccessesPerVisit line accesses under the given miss and invalidation
// rates.
func EstimateSM(model cost.Model, mp mem.Params, p advisor.SiteProfile, missRate, invalRate float64) float64 {
	e := &Engine{model: model, mp: mp, missRate: missRate, invalRate: invalRate}
	return e.estimateSMVisit(p)
}
