package harness

import (
	"fmt"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
	"compmig/internal/core"
)

// scalePoints are the large-mesh machine shapes of the scale sweep,
// from just above 256 processors to 1,024. The countnet width fixes its
// balancer count (a width-w bitonic network uses w/2 balancers across
// (log2 w)(log2 w+1)/2 stages), so processors = balancers + threads;
// the B-tree reaches the same machine sizes through NodeProcs.
type scalePoint struct {
	cnWidth   int // counting-network width
	cnThreads int
	btProcs   int // B-tree node processors
	btThreads int
}

func scalePoints(quick bool) []scalePoint {
	if quick {
		// One >=256-processor point keeps the smoke run honest without
		// paying for the 1,024-processor builds.
		return []scalePoint{{cnWidth: 32, cnThreads: 64, btProcs: 240, btThreads: 64}}
	}
	return []scalePoint{
		{cnWidth: 32, cnThreads: 64, btProcs: 240, btThreads: 64},   // 304 procs
		{cnWidth: 64, cnThreads: 128, btProcs: 672, btThreads: 128}, // 800 procs
		{cnWidth: 64, cnThreads: 352, btProcs: 960, btThreads: 64},  // 1024 procs
	}
}

// scaleExp is the 256-1,024 processor mesh sweep on both applications.
// Both apps run on a 2D mesh (per-hop latency is what gives the shard
// lanes a real lookahead window); countnet CM/RPC points honor
// Options.Shards and run on the sharded engine, while the B-tree — whose
// root-serialized accesses defeat processor partitioning — always runs
// serially and serves as the serial-scaling baseline.
func scaleExp(o Options) experiment {
	warmup, measure := o.windows()
	points := scalePoints(o.Quick)
	schemes := []core.Scheme{{Mechanism: core.Migrate}, {Mechanism: core.RPC}}
	var specs []RunSpec
	for _, pt := range points {
		for _, s := range schemes {
			cfg := countnet.Config{
				Width: pt.cnWidth, Threads: pt.cnThreads, Scheme: s,
				Seed: o.seed(), Warmup: warmup, Measure: measure,
				Mesh: true, Shards: o.Shards,
			}
			specs = append(specs, func() any { return countnet.RunExperiment(cfg) })
		}
	}
	for _, pt := range points {
		for _, s := range schemes {
			p := btree.DefaultParams()
			p.NodeProcs = pt.btProcs
			cfg := btree.Config{
				Params: p, Threads: pt.btThreads, Scheme: s,
				Seed: o.seed(), Warmup: warmup, Measure: measure,
				Mesh: true,
			}
			specs = append(specs, func() any { return btree.RunExperiment(cfg) })
		}
	}
	render := func(results []any) []Table {
		t := Table{
			ID:      "SCALE",
			Title:   "Large-mesh scaling, 256-1024 processors (0 think time)",
			Headers: []string{"app", "scheme", "procs", "tput/1000cyc", "words/10cyc", "ops"},
			Note:    "countnet CM/RPC points run on the sharded engine when -shards >= 1; the B-tree is always serial",
		}
		i := 0
		for _, pt := range points {
			for _, s := range schemes {
				r := results[i].(countnet.Result)
				i++
				t.Rows = append(t.Rows, []string{
					"countnet", s.Name(), fmt.Sprintf("%d", countnet.Config{Width: pt.cnWidth, Threads: pt.cnThreads}.Procs()),
					fmt.Sprintf("%.2f", r.Throughput), fmt.Sprintf("%.2f", r.Bandwidth),
					fmt.Sprintf("%d", r.Ops),
				})
			}
		}
		for _, pt := range points {
			for _, s := range schemes {
				r := results[i].(btree.Result)
				i++
				t.Rows = append(t.Rows, []string{
					"btree", s.Name(), fmt.Sprintf("%d", pt.btProcs+pt.btThreads),
					fmt.Sprintf("%.3f", r.Throughput), fmt.Sprintf("%.2f", r.Bandwidth),
					fmt.Sprintf("%d", r.Ops),
				})
			}
		}
		return []Table{t}
	}
	return experiment{specs: specs, render: render}
}
