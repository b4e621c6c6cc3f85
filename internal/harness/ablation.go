package harness

import (
	"fmt"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
	"compmig/internal/core"
	"compmig/internal/cost"
	"compmig/internal/mem"
)

// ablation is one probe of a design choice beyond the paper's published
// results, one of the knobs its §2, §4 and §6 discuss. It renders one
// EXT-ABLATION table with a row per variant.
type ablation struct {
	title   string
	note    string
	headers []string // the metric columns, after "variant"
	rows    []variant
}

// variant is one row: a single simulation whose run returns the row's
// metric cells.
type variant struct {
	name string
	run  func() []string
}

// ablationExp decomposes the ablations into one spec per variant. The
// applications run at the suite's windows; a nil tweak keeps the
// paper's machine.
func ablationExp(o Options) experiment {
	warmup, measure := o.windows()
	cp := core.Scheme{Mechanism: core.Migrate}
	cpRepl := core.Scheme{Mechanism: core.Migrate, Replication: true}
	rpc := core.Scheme{Mechanism: core.RPC}
	sm := core.Scheme{Mechanism: core.SharedMem}
	cn := func(s core.Scheme, threads int, tweak func(*countnet.Config)) func() []string {
		cfg := countnet.Config{
			Threads: threads, Scheme: s, Seed: o.seed(),
			Warmup: warmup, Measure: measure, Faults: o.Faults,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		return func() []string { return []string{fmt.Sprintf("%.3f", countnet.RunExperiment(cfg).Throughput)} }
	}
	// bt's rows show throughput, then one cell per extra metric.
	bt := func(s core.Scheme, tweak func(*btree.Config), extra ...func(btree.Result) string) func() []string {
		cfg := btree.Config{Scheme: s, Seed: o.seed(), Warmup: warmup, Measure: measure, Faults: o.Faults}
		if tweak != nil {
			tweak(&cfg)
		}
		return func() []string {
			r := btree.RunExperiment(cfg)
			cells := []string{fmt.Sprintf("%.3f", r.Throughput)}
			for _, f := range extra {
				cells = append(cells, f(r))
			}
			return cells
		}
	}
	latency := func(r btree.Result) string { return fmt.Sprintf("%.0f", r.MeanLatency) }
	rootBusy := func(r btree.Result) string { return fmt.Sprintf("%.0f%%", 100*r.RootUtilization) }
	hits := func(r btree.Result) string { return fmt.Sprintf("%.2f%%", 100*r.HitRate) }
	bandwidth := func(r btree.Result) string { return fmt.Sprintf("%.2f", r.Bandwidth) }
	memParams := func(edit func(*mem.Params)) func(*btree.Config) {
		return func(c *btree.Config) {
			p := mem.DefaultParams()
			edit(&p)
			c.MemParams = &p
		}
	}
	cache := func(kb, ways int) func(*btree.Config) {
		return memParams(func(p *mem.Params) { p.CacheBytes, p.Ways = kb<<10, ways })
	}
	hot := func(c *btree.Config) { c.HotOpFrac, c.HotKeyFrac = 0.9, 0.1 }
	threadsPerProc := func(per int) func() []string {
		return cn(sm, 8*per, func(c *countnet.Config) { c.ThreadsPerProc = per })
	}
	granularity := func(stackWords uint64) func() []string {
		return func() []string { return []string{fmt.Sprintf("%d", chainCycles(stackWords, o.seed()))} }
	}

	am := cost.Software().WithActiveMessages()
	// Short methods skip ThreadCreation in the runtime. To take that
	// saving away, thread creation becomes free for everyone and its
	// cost is added back as scheduler cost on every message.
	noShort := cost.Software()
	noShort.Scheduler += noShort.ThreadCreation
	noShort.ThreadCreation = 0

	abls := []ablation{
		{"Active-Messages runtime (§6): counting network, CP, 32 threads, requests/1000 cycles",
			"migration receive paths stop creating handler threads; §6 predicts this \"could lead to far better performance\"",
			[]string{"throughput"}, []variant{
				{"threaded", cn(cp, 32, nil)},
				{"active-messages", cn(cp, 32, func(c *countnet.Config) { c.Model = &am })},
			}},
		{"Short-method fast path (§4.4): counting network, RPC, 32 threads, requests/1000 cycles",
			"always-thread creates a handler thread for every call, as RPC would without Prelude's short methods",
			[]string{"throughput"}, []variant{
				{"fastpath", cn(rpc, 32, nil)},
				{"always-thread", cn(rpc, 32, func(c *countnet.Config) { c.Model = &noShort })},
			}},
		{"Topology: B-tree, CP, 0 think time",
			"no mesh effect: throughput and mean latency (cycles per operation) stay within about 1% of the " +
				"crossbar's, because the descents queue on the root's processor (root busy), not in the network",
			[]string{"ops/1000 cycles", "mean latency", "root busy"}, []variant{
				{"crossbar", bt(cp, nil, latency, rootBusy)},
				{"mesh", bt(cp, func(c *btree.Config) { c.Mesh = true }, latency, rootBusy)},
			}},
		{"Cache geometry: B-tree, SM, 0 think time",
			"the paper's machine has 64K direct-mapped caches",
			[]string{"ops/1000 cycles", "hit rate"}, []variant{
				{"16K-direct", bt(sm, cache(16, 1), hits)},
				{"64K-direct", bt(sm, cache(64, 1), hits)},
				{"64K-4way", bt(sm, cache(64, 4), hits)},
				{"256K-direct", bt(sm, cache(256, 1), hits)},
			}},
		{"LimitLESS directory: B-tree, SM, 0 think time, ops/1000 cycles",
			"five hardware pointers, then software traps on the home processor; the tree's upper levels are widely read-shared",
			[]string{"throughput"}, []variant{
				{"full-map", bt(sm, nil)},
				{"limitless-5ptr", bt(sm, memParams(func(p *mem.Params) { p.DirPointers = 5 }))},
			}},
		{"Migration granularity (§2.3): one CP visit to each of 8 items on 8 processors, cycles",
			"whole-thread migration ships the thread's stack on every hop: \"the grain of migration is too coarse\"",
			[]string{"cycles"}, []variant{
				{"frame-only", granularity(0)},
				{"thread-512B", granularity(128)},
				{"thread-4096B", granularity(1024)},
			}},
		{"Prefetch (§2.5): B-tree, SM, 0 think time",
			"overlapping a node's key-array fetches with the descent buys throughput with speculative bandwidth",
			[]string{"ops/1000 cycles", "words/10 cycles"}, []variant{
				{"demand", bt(sm, nil, bandwidth)},
				{"prefetch", bt(sm, func(c *btree.Config) { c.SMPrefetch = true }, bandwidth)},
			}},
		{"Multithreading: counting network, SM, 8 requester processors, requests/1000 cycles",
			"the Alewife capability the paper's machine omitted: co-resident threads hide each other's miss latency",
			[]string{"throughput"}, []variant{
				{"threads-per-proc-1", threadsPerProc(1)},
				{"threads-per-proc-2", threadsPerProc(2)},
				{"threads-per-proc-4", threadsPerProc(4)},
			}},
		{"Skew (§2.5): B-tree, 0 think time, ops/1000 cycles",
			"hot-90-10 sends 90% of operations to 10% of the keys: SM caches the hot leaves " +
				"while CM funnels activations onto their home processors",
			[]string{"throughput"}, []variant{
				{"uniform, CP w/repl.", bt(cpRepl, nil)},
				{"uniform, SM", bt(sm, nil)},
				{"hot-90-10, CP w/repl.", bt(cpRepl, hot)},
				{"hot-90-10, SM", bt(sm, hot)},
			}},
	}

	var specs []RunSpec
	for _, a := range abls {
		for _, v := range a.rows {
			specs = append(specs, func() any { return v.run() })
		}
	}
	render := func(results []any) []Table {
		var tables []Table
		i := 0
		for _, a := range abls {
			t := Table{ID: "EXT-ABLATION", Title: a.title, Note: a.note, Headers: append([]string{"variant"}, a.headers...)}
			for _, v := range a.rows {
				t.Rows = append(t.Rows, append([]string{v.name}, results[i].([]string)...))
				i++
			}
			tables = append(tables, t)
		}
		return tables
	}
	return experiment{specs: specs, render: render}
}
