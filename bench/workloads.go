// Package bench is the simulator's benchmark: four frozen workloads,
// each a list of simulator runs driven through the apps' public
// RunExperiment entry points, measured end to end (host wall time,
// allocation, memory and the simulated results) and, in a traced run,
// attributed to the repo's layers. See README.md.
//
// The configs are written out here instead of taken from
// internal/harness so that a later harness or app refactor cannot
// silently change what the benchmark measures.
package bench

import (
	"fmt"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
	"compmig/internal/apps/kv"
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/load"
	"compmig/internal/sim"
	"compmig/internal/stats"
	"compmig/internal/store"
)

// Workload is one named list of simulator runs. BENCHMARK.json gives
// each workload's reason.
type Workload struct {
	Name    string
	Configs []Config
}

// Config is one simulator run. Run builds a fresh machine for the seed
// at full (quick=false) or quick windows and reports its outcome.
type Config struct {
	Label string
	App   string // the app entry point called: "countnet", "btree" or "kv"
	Run   func(seed uint64, quick bool) Outcome
}

// Outcome is what one run produced. A non-empty Failure marks the run
// failed.
type Outcome struct {
	Sim     SimResult
	Failure string
}

// SimResult holds a run's simulated results. Every field is comparable,
// so two runs of one config agree exactly when their SimResults are ==.
type SimResult struct {
	Ops         uint64
	Throughput  float64 // ops per 1000 cycles
	Bandwidth   float64 // words per 10 cycles (closed-loop apps)
	WordsPerOp  float64
	MeanLatency float64 // cycles
	P95         uint64  // cycles, power-of-two bucket edge
	HitRate     float64
	Decisions   [4]uint64
	Fault       fault.Counters
	Recovery    store.Counters
	Latency     stats.Histogram // kv runs only
}

// Workloads returns the benchmark's workloads in a fixed order.
func Workloads() []Workload {
	return []Workload{mpClosed(), smClosed(), kvOpen(), faultsDurable()}
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want mp-closed, sm-closed, kv-open or faults-durable)", name)
}

// windows are the closed-loop apps' warm-up and measurement windows, as
// paperfigs uses them at full and at -quick scale.
func windows(quick bool) (warmup, measure sim.Time) {
	if quick {
		return 10000, 60000
	}
	return 20000, 300000
}

var (
	cm     = core.Scheme{Mechanism: core.Migrate}
	cmHW   = core.Scheme{Mechanism: core.Migrate, HWMessaging: true}
	rpc    = core.Scheme{Mechanism: core.RPC}
	rpcHW  = core.Scheme{Mechanism: core.RPC, HWMessaging: true}
	sm     = core.Scheme{Mechanism: core.SharedMem}
	om     = core.Scheme{Mechanism: core.ObjMigrate}
	thinks = []uint64{0, 10000}
)

// fig2Threads is Figure 2's thread axis at full scale.
var fig2Threads = []int{8, 16, 32, 48, 64}

// mpClosed is every message-passing closed-loop run of the paper sweeps:
// Figure 2's CM and RPC curves, the object-migration extension, the
// B-tree tables' non-SM rows and the 1,024-processor mesh.
func mpClosed() Workload {
	var cs []Config
	for _, s := range []core.Scheme{cm, cmHW, rpc, rpcHW} {
		for _, think := range thinks {
			for _, n := range fig2Threads {
				cs = append(cs, countnetRun(fmt.Sprintf("fig2/%s/think=%d/threads=%d", s.Name(), think, n),
					countnet.Config{Threads: n, Think: think, Scheme: s}))
			}
		}
	}
	for _, think := range thinks {
		cs = append(cs, countnetRun(fmt.Sprintf("objmig/think=%d", think),
			countnet.Config{Threads: 16, Think: think, Scheme: om}))
	}
	table1 := []core.Scheme{
		rpc, rpcHW,
		{Mechanism: core.RPC, Replication: true},
		{Mechanism: core.RPC, Replication: true, HWMessaging: true},
		cm, cmHW,
		{Mechanism: core.Migrate, Replication: true},
		{Mechanism: core.Migrate, Replication: true, HWMessaging: true},
	}
	for _, s := range table1 {
		cs = append(cs, btreeRun("table1/"+s.Name(), btree.Config{Scheme: s}))
	}
	for _, s := range table1[6:] {
		cs = append(cs, btreeRun("table3/"+s.Name(), btree.Config{Scheme: s, Think: 10000}))
	}
	for _, s := range []core.Scheme{cm, rpc} {
		cs = append(cs, countnetRun("mesh1024/"+s.Name(),
			countnet.Config{Width: 64, Threads: 352, Scheme: s, Mesh: true}))
	}
	for _, s := range []core.Scheme{cm, rpc} {
		p := btree.DefaultParams()
		p.NodeProcs = 960
		cs = append(cs, btreeRun("mesh1024/"+s.Name(),
			btree.Config{Params: p, Threads: 64, Scheme: s, Mesh: true}))
	}
	return Workload{
		Name:    "mp-closed",
		Configs: cs,
	}
}

// smClosed is every shared-memory closed-loop run: the coherence
// protocol does the work and no handler thread exists.
func smClosed() Workload {
	var cs []Config
	for _, think := range thinks {
		for _, n := range fig2Threads {
			cs = append(cs, countnetRun(fmt.Sprintf("fig2/SM/think=%d/threads=%d", think, n),
				countnet.Config{Threads: n, Think: think, Scheme: sm}))
		}
	}
	for _, think := range thinks {
		cs = append(cs, btreeRun(fmt.Sprintf("btree/SM/think=%d", think), btree.Config{Scheme: sm, Think: think}))
	}
	p := btree.DefaultParams()
	p.Fanout = 10
	cs = append(cs, btreeRun("smallnode/SM", btree.Config{Params: p, Scheme: sm}))
	return Workload{
		Name:    "sm-closed",
		Configs: cs,
	}
}

// kvOpen is the ext-kv sweep: every policy at every skew and machine
// speed profile, under open-loop arrivals.
func kvOpen() Workload {
	heteros := []*cost.Hetero{
		nil,
		{Kind: "bimodal", Factor: 4, Frac: 0.5},
		{Kind: "gradient", Min: 1, Max: 4},
	}
	var cs []Config
	for _, h := range heteros {
		for _, pol := range []string{"static:rpc", "static:cm", "static:sm", "costmodel", "bandit"} {
			for _, theta := range []float64{0, 0.99} {
				name := "uniform"
				if h != nil {
					name = h.String()
				}
				cs = append(cs, kvRun(fmt.Sprintf("open/%s/zipf=%g/hetero=%s", pol, theta, name), kv.Config{
					Policy:       pol,
					AccessCycles: 200,
					Hetero:       h,
					Load: &load.Spec{
						Keys: 512, Period: 220, Theta: theta,
						ReadPct: 70, WritePct: 25, ScanPct: 5, ScanLen: 8,
						HotShift: 0.25, HotPeriod: 60000,
						BurstMult: 3, BurstStart: 40000, BurstLen: 30000,
					},
				}, 800))
			}
		}
	}
	return Workload{
		Name:    "kv-open",
		Configs: cs,
	}
}

// faultsDurable is the ext-fault sweep at its two faulty rates plus the
// ext-recovery sweep at the default checkpoint interval.
func faultsDurable() Workload {
	schemes := []core.Scheme{rpc, cm, sm}
	var cs []Config
	for _, rate := range []float64{0.02, 0.05} {
		plan := &fault.Spec{Drop: rate, Dup: rate / 2, DelayMax: 40}
		for _, s := range schemes {
			cs = append(cs, countnetRun(fmt.Sprintf("fault/%s/drop=%g", s.Name(), rate),
				countnet.Config{Threads: 16, Scheme: s, Faults: plan}))
		}
		for _, s := range schemes {
			cs = append(cs, btreeRun(fmt.Sprintf("fault/%s/drop=%g", s.Name(), rate),
				btree.Config{Scheme: s, Faults: plan}))
		}
	}
	wipes := []fault.Window{
		{Proc: 2, Start: 60000, Dur: 8000, Wipe: true},
		{Proc: 5, Start: 120000, Dur: 8000, Wipe: true},
	}
	for _, s := range schemes {
		for n := 0; n <= len(wipes); n++ {
			var plan *fault.Spec
			if n > 0 {
				plan = &fault.Spec{Windows: wipes[:n]}
			}
			cs = append(cs, kvRun(fmt.Sprintf("recovery/%s/wipes=%d", s.Name(), n), kv.Config{
				Scheme:  s,
				Durable: true,
				Faults:  plan,
				Load: &load.Spec{
					Keys: 256, Period: 220, Theta: 0.9,
					ReadPct: 45, WritePct: 50, ScanPct: 5, ScanLen: 8,
				},
			}, 1000))
		}
	}
	return Workload{
		Name:    "faults-durable",
		Configs: cs,
	}
}

// withSeed returns a copy of a fault plan whose injector stream is the
// workload seed (nil stays nil).
func withSeed(f *fault.Spec, seed uint64) *fault.Spec {
	if f == nil {
		return nil
	}
	c := *f
	c.Seed = seed
	return &c
}

// faultFailure reports a run whose reliability layer gave up on a
// message: it completed, but not every message got through.
func faultFailure(c *fault.Counters) string {
	if c != nil && c.GiveUps > 0 {
		return fmt.Sprintf("%d messages given up", c.GiveUps)
	}
	return ""
}

func countnetRun(label string, cfg countnet.Config) Config {
	return Config{Label: "countnet/" + label, App: "countnet", Run: func(seed uint64, quick bool) Outcome {
		c := cfg
		c.Seed = seed
		c.Warmup, c.Measure = windows(quick)
		c.Faults = withSeed(cfg.Faults, seed)
		r := countnet.RunExperiment(c)
		out := Outcome{Sim: SimResult{
			Ops: r.Ops, Throughput: r.Throughput, Bandwidth: r.Bandwidth,
			WordsPerOp: r.WordsPerOp, MeanLatency: r.MeanLatency, P95: r.P95Latency,
			HitRate: r.HitRate, Decisions: r.Decisions,
		}}
		if r.Fault != nil {
			out.Sim.Fault = *r.Fault
		}
		if r.Recovery != nil {
			out.Sim.Recovery = *r.Recovery
		}
		out.Failure = firstOf(r.InvariantErr, faultFailure(r.Fault))
		return out
	}}
}

func btreeRun(label string, cfg btree.Config) Config {
	return Config{Label: "btree/" + label, App: "btree", Run: func(seed uint64, quick bool) Outcome {
		c := cfg
		c.Seed = seed
		c.Warmup, c.Measure = windows(quick)
		c.Faults = withSeed(cfg.Faults, seed)
		r := btree.RunExperiment(c)
		out := Outcome{Sim: SimResult{
			Ops: r.Ops, Throughput: r.Throughput, Bandwidth: r.Bandwidth,
			WordsPerOp: r.WordsPerOp, MeanLatency: r.MeanLatency, P95: r.P95Latency,
			HitRate: r.HitRate, Decisions: r.Decisions,
		}}
		if r.Fault != nil {
			out.Sim.Fault = *r.Fault
		}
		if r.Recovery != nil {
			out.Sim.Recovery = *r.Recovery
		}
		out.Failure = firstOf(r.InvariantErr, faultFailure(r.Fault))
		return out
	}}
}

// kvRun runs the store with cfg.Load's arrival count set to 4,000, or
// quickOps at quick windows. A durable run must recover exactly the
// wipes its plan schedules.
func kvRun(label string, cfg kv.Config, quickOps uint64) Config {
	return Config{Label: "kv/" + label, App: "kv", Run: func(seed uint64, quick bool) Outcome {
		c := cfg
		c.Seed = seed
		c.Faults = withSeed(cfg.Faults, seed)
		ld := *cfg.Load
		ld.Ops = 4000
		if quick {
			ld.Ops = quickOps
		}
		c.Load = &ld
		r := kv.RunExperiment(c)
		out := Outcome{Sim: SimResult{
			Ops: r.Ops, Throughput: r.Throughput, WordsPerOp: r.WordsPerOp,
			MeanLatency: r.MeanLatency, P95: r.P95, HitRate: r.HitRate,
			Decisions: r.Decisions, Latency: *r.Latency,
		}}
		if r.Fault != nil {
			out.Sim.Fault = *r.Fault
		}
		wipeFailure := ""
		if r.Recovery != nil {
			out.Sim.Recovery = *r.Recovery
			if want := wipeCount(cfg.Faults); r.Recovery.Wipes != want {
				wipeFailure = fmt.Sprintf("recovered %d wipes, plan has %d", r.Recovery.Wipes, want)
			}
		} else if cfg.Durable {
			wipeFailure = "durable run reported no store counters"
		}
		out.Failure = firstOf(r.InvariantErr, faultFailure(r.Fault), wipeFailure)
		return out
	}}
}

func wipeCount(f *fault.Spec) uint64 {
	var n uint64
	if f != nil {
		for _, w := range f.Windows {
			if w.Wipe {
				n++
			}
		}
	}
	return n
}

func firstOf(msgs ...string) string {
	for _, m := range msgs {
		if m != "" {
			return m
		}
	}
	return ""
}
