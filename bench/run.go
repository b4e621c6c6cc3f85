package bench

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"compmig/internal/profile"
	"compmig/internal/stats"
)

// Options selects how one workload process runs.
type Options struct {
	Seed uint64
	// Seconds is the timed phase's budget in host seconds: reps repeat
	// until it is spent, and at least one runs.
	Seconds float64
	// Trace adds the traced phase, which gives the per-layer metrics.
	Trace bool
	// Quick runs every phase at quick windows, with one set-up pass and
	// one timed rep (tests).
	Quick bool
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the result of one workload process.
type Report struct {
	Attempted int      // runs attempted over all phases
	Failed    int      // runs that failed
	Failures  []string // "label: reason" of each failed run, in run order
	EndToEnd  map[string]Metric
	PerLayer  map[string]Metric // nil unless Options.Trace
}

// setupPasses is how many warm-up passes run; setup_s is their median.
// The first pass also pays the one-time costs (key memo, engine pools,
// heap growth).
const setupPasses = 5

// apps are the app entry points a config can call, for call.<app>_s.
var apps = []string{"btree", "countnet", "kv"}

// counters are the profile.Snapshot counters reported per traced rep,
// with their units.
var counters = [][2]string{
	{"engine.heap_pushes", "count"}, {"net.sends", "count"},
	{"mem.fast_hits", "count"}, {"mem.fast_local", "count"}, {"mem.slow", "count"},
	{"policy.rpc", "count"}, {"policy.cm", "count"}, {"policy.sm", "count"}, {"policy.om", "count"},
	{"fault.drops", "count"}, {"fault.dups", "count"}, {"fault.retransmits", "count"},
	{"fault.timeouts", "count"}, {"fault.giveups", "count"},
	{"store.wal_appends", "count"}, {"store.checkpoint_bytes", "bytes"},
	{"store.replay_events", "count"}, {"store.recovery_cycles", "cycles"},
}

// runner runs a workload's configs and checks every outcome.
type runner struct {
	w        Workload
	seed     uint64
	cal      *calibrator
	ref      [2][]*SimResult // first result of each config, at full [0] and quick [1] windows
	attempts int
	failures []string
}

type pass struct {
	secs  []float64 // host seconds inside each config's app entry point
	sims  []SimResult
	calib float64 // fastest reference-loop run of the pass; 0 if none ran
}

// pass runs every config once. With calibrate, one reference-loop run
// precedes each config, so the pass samples the host's speed all
// through it.
func (r *runner) pass(quick, calibrate bool) pass {
	var p pass
	for i, c := range r.w.Configs {
		if calibrate {
			p.calib = fastestOf(p.calib, r.cal.run())
		}
		t0 := time.Now()
		out := protect(func() Outcome { return c.Run(r.seed, quick) })
		p.secs = append(p.secs, time.Since(t0).Seconds())
		r.check(i, c.Label, quick, out)
		p.sims = append(p.sims, out.Sim)
	}
	return p
}

// phase keeps each config's fastest run over a phase's passes, and the
// fastest calibration run. The runs are deterministic and other tenants
// of a shared host only add time, so a config's fastest run is its
// least disturbed measurement; the calibration run measured alongside
// scales it to the reference host speed.
type phase struct {
	best  []float64
	calib float64
}

// calibrate samples the host's speed outside any pass.
func (ph *phase) calibrate(c *calibrator) { ph.calib = fastestOf(ph.calib, c.best()) }

func (ph *phase) add(p pass) {
	ph.calib = fastestOf(ph.calib, p.calib)
	if ph.best == nil {
		ph.best = slices.Clone(p.secs)
		return
	}
	for i, s := range p.secs {
		ph.best[i] = min(ph.best[i], s)
	}
}

// fastestOf is the smaller of two times, where 0 means none.
func fastestOf(a, b float64) float64 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

// speed is the host's speed over the phase relative to the reference
// host: 1 at the reference speed, 0.5 when twice as slow.
func (ph *phase) speed() float64 { return refCalibSeconds / ph.calib }

// wall is the host seconds of one pass at the reference speed.
func (ph *phase) wall() float64 { return sum(ph.best) * ph.speed() }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// check counts one run and records why it failed, if it did. A run
// whose simulated results differ from its config's first run at the
// same windows fails: the simulator is deterministic per seed.
func (r *runner) check(i int, label string, quick bool, out Outcome) {
	r.attempts++
	q := 0
	if quick {
		q = 1
	}
	if r.ref[q] == nil {
		r.ref[q] = make([]*SimResult, len(r.w.Configs))
	}
	why := out.Failure
	switch ref := r.ref[q][i]; {
	case why != "":
	case ref == nil:
		sim := out.Sim
		r.ref[q][i] = &sim
	case *ref != out.Sim:
		why = "simulated results differ from the config's first run"
	}
	if why != "" {
		r.failures = append(r.failures, label+": "+why)
	}
}

// protect runs one config, turning a panic on this goroutine into a
// failed outcome.
func protect(run func() Outcome) (out Outcome) {
	defer func() {
		if p := recover(); p != nil {
			out = Outcome{Failure: fmt.Sprintf("panic: %v", p)}
		}
	}()
	return run()
}

// Run runs one workload in three phases: warm-up passes at quick
// windows (setup_s is their median), timed reps at full windows with
// tracing off (the end-to-end metrics), and, with o.Trace, half as many
// reps again with the profile timers and a CPU profile on (the
// per-layer metrics). wall_s sums each config's fastest timed run,
// scaled to the reference host speed.
func Run(w Workload, o Options) (Report, error) {
	r := &runner{w: w, seed: o.Seed, cal: newCalibrator()}
	defer r.cal.close()
	nSetup := setupPasses
	if o.Quick {
		nSetup = 1
	}
	var setup []float64
	for range nSetup {
		var ph phase
		ph.add(r.pass(true, true))
		setup = append(setup, ph.wall())
	}

	var allocs, mallocs []float64
	var first pass
	var timed phase
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start).Seconds() < o.Seconds; rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p := r.pass(o.Quick, true)
		runtime.ReadMemStats(&m1)
		if rep == 0 {
			first = p
		}
		timed.add(p)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc))
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
	}
	rss, err := maxRSSBytes()
	if err != nil {
		return Report{}, err
	}
	sim := summarize(first.sims)
	wall := timed.wall()
	rep := Report{EndToEnd: map[string]Metric{
		"wall_s":                  {wall, "s"},
		"setup_s":                 {median(setup), "s"},
		"alloc_mb":                {median(allocs) / 1e6, "MB"},
		"allocs_m":                {median(mallocs) / 1e6, "millions"},
		"max_rss_mb":              {rss / 1e6, "MB"},
		"sim_thr_gmean":           {sim.thrGmean, "ops/kcycle"},
		"sim_words_per_op":        {sim.wordsPerOp, "words/op"},
		"sim_latency_mean_cycles": {sim.latencyMean, "cycles"},
	}}

	if o.Trace {
		layer, tracedWall, err := r.traced((len(allocs)+1)/2, o.Quick)
		if err != nil {
			return Report{}, err
		}
		for _, app := range apps {
			var s float64
			for i, c := range w.Configs {
				if c.App == app {
					s += timed.best[i]
				}
			}
			layer["call."+app+"_s"] = Metric{s * timed.speed(), "s"}
		}
		layer["host.wall_raw_s"] = Metric{sum(timed.best), "s"}
		layer["host.speed"] = Metric{timed.speed(), "ratio"}
		layer["trace_overhead_pct"] = Metric{(tracedWall/wall - 1) * 100, "%"}
		layer["host.ns_per_sim_op"] = Metric{ratio(wall*1e9, sim.ops), "ns"}
		layer["sim.ops"] = Metric{sim.ops, "count"}
		layer["sim.hit_rate"] = Metric{sim.hitRate, "ratio"}
		layer["sim_p50_cycles"] = Metric{float64(sim.latency.Quantile(0.50)), "cycles"}
		layer["sim_p99_cycles"] = Metric{float64(sim.latency.Quantile(0.99)), "cycles"}
		rep.PerLayer = layer
	}

	rep.Attempted = r.attempts
	rep.Failed = len(r.failures)
	rep.Failures = r.failures
	if rep.PerLayer != nil {
		rep.PerLayer["fail_frac"] = Metric{float64(rep.Failed) / float64(rep.Attempted), "fraction"}
	}
	return rep, nil
}

// traced runs reps passes with the profile timers and a CPU profile on
// and returns the per-layer metrics it measures, per rep, and the
// traced counterpart of wall_s. Host seconds are scaled to the
// reference speed by calibration runs made just outside the profile.
func (r *runner) traced(reps int, quick bool) (map[string]Metric, float64, error) {
	var ph phase
	ph.calibrate(r.cal)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("traced phase: %w", err)
	}
	profile.Enable(true)
	snap0 := profile.Snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for range reps {
		ph.add(r.pass(quick, false))
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	snap1 := profile.Snapshot()
	profile.Enable(false)
	pprof.StopCPUProfile()
	ph.calibrate(r.cal)

	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, 0, fmt.Errorf("traced phase: %w", err)
	}
	n := float64(reps)
	out := make(map[string]Metric)
	var cpuNs float64
	for _, s := range samples {
		cpuNs += float64(s.ns)
	}
	host := attributeAll(samples)
	for _, b := range buckets() {
		out[b] = Metric{host[b] * ph.speed() / n, "s"}
	}
	out["host.coverage"] = Metric{cpuNs / 1e9 / elapsed, "ratio"}

	delta := func(name string) float64 {
		for i, s := range snap1 {
			if s.Name == name {
				return float64(s.Count - snap0[i].Count)
			}
		}
		fmt.Fprintf(os.Stderr, "compbench: profile counter %s not found; reporting 0\n", name)
		return 0
	}
	for _, c := range counters {
		out[c[0]] = Metric{delta(c[0]) / n, c[1]}
	}
	out["rt.gc_cycles"] = Metric{float64(m1.NumGC-m0.NumGC) / n, "count"}
	fast := delta("mem.fast_hits") + delta("mem.fast_local")
	out["mem.fast_ratio"] = Metric{ratio(fast, fast+delta("mem.slow")), "ratio"}
	out["fault.retx_ratio"] = Metric{ratio(delta("fault.retransmits"), delta("net.sends")), "ratio"}
	out["host.ns_per_heap_push"] = Metric{ratio(cpuNs*ph.speed(), delta("engine.heap_pushes")), "ns"}
	return out, ph.wall(), nil
}

// simSummary aggregates one pass's simulated results.
type simSummary struct {
	ops         float64
	thrGmean    float64 // geometric mean of throughput over runs
	wordsPerOp  float64 // ops-weighted
	latencyMean float64 // ops-weighted mean of each run's mean latency
	hitRate     float64 // ops-weighted
	latency     stats.Histogram
}

func summarize(sims []SimResult) simSummary {
	var s simSummary
	var logThr, words, lat, hits float64
	for i := range sims {
		r := &sims[i]
		ops := float64(r.Ops)
		s.ops += ops
		logThr += math.Log(r.Throughput)
		words += r.WordsPerOp * ops
		lat += r.MeanLatency * ops
		hits += r.HitRate * ops
		s.latency.AddFrom(&r.Latency)
	}
	if len(sims) > 0 {
		s.thrGmean = math.Exp(logThr / float64(len(sims)))
	}
	s.wordsPerOp = ratio(words, s.ops)
	s.latencyMean = ratio(lat, s.ops)
	s.hitRate = ratio(hits, s.ops)
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// maxRSSBytes is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func maxRSSBytes() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024, nil
}
