package harness

import (
	"fmt"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
	"compmig/internal/core"
)

// objMigExp decomposes the comparison the paper wanted but could not
// ("We would like to compare our results to object migration, such as
// the mechanism in Emerald, but our group has not finished implementing
// object migration in Prelude yet", §4): Emerald-style whole-object
// migration against the paper's three mechanisms on the counting
// network, at both contention levels — one spec per (scheme, think).
func objMigExp(o Options) experiment {
	warmup, measure := o.windows()
	schemes := []core.Scheme{
		{Mechanism: core.SharedMem},
		{Mechanism: core.Migrate},
		{Mechanism: core.RPC},
		{Mechanism: core.ObjMigrate},
	}
	thinks := []uint64{0, 10000}
	var specs []RunSpec
	for _, s := range schemes {
		for _, think := range thinks {
			cfg := countnet.Config{
				Threads: 16, Think: think, Scheme: s,
				Seed: o.seed(), Warmup: warmup, Measure: measure,
				Policy: abPolicy(s.Mechanism), Faults: o.Faults,
			}
			specs = append(specs, func() any { return countnet.RunExperiment(cfg) })
		}
	}
	render := func(results []any) []Table {
		t := Table{
			ID:    "EXT-OBJMIG",
			Title: "Counting network with Emerald-style object migration, requests/1000 cycles",
			Note: "extension beyond the paper: write-shared balancers ping-pong between " +
				"requesters under object migration, so it behaves like unreplicated data " +
				"migration — §2.2's prediction",
			Headers: []string{"scheme", "think=0", "think=10000", "moves", "forwards"},
		}
		i := 0
		for _, s := range schemes {
			row := []string{s.Name()}
			var moves, forwards string
			for range thinks {
				r := results[i].(countnet.Result)
				i++
				row = append(row, fmt.Sprintf("%.2f", r.Throughput))
				moves = fmt.Sprintf("%d", r.ObjectMoves)
				forwards = fmt.Sprintf("%d", r.Forwards)
			}
			row = append(row, moves, forwards)
			t.Rows = append(t.Rows, row)
		}
		return []Table{t}
	}
	return experiment{specs: specs, render: render}
}

// btreeObjMigExp decomposes the same extension on the B-tree: pulling
// the read-mostly upper nodes around is better than ping-ponging
// balancers, but the shared root still makes whole-object migration lose
// to computation migration.
func btreeObjMigExp(o Options) experiment {
	warmup, measure := o.windows()
	schemes := []core.Scheme{
		{Mechanism: core.Migrate},
		{Mechanism: core.RPC},
		{Mechanism: core.ObjMigrate},
	}
	var specs []RunSpec
	for _, s := range schemes {
		cfg := btree.Config{
			Scheme: s, Think: 0, Seed: o.seed(),
			Warmup: warmup, Measure: measure,
			Policy: abPolicy(s.Mechanism), Faults: o.Faults,
		}
		specs = append(specs, func() any { return btree.RunExperiment(cfg) })
	}
	render := func(results []any) []Table {
		t := Table{
			ID:    "EXT-OBJMIG-BTREE",
			Title: "B-tree with Emerald-style object migration, ops/1000 cycles (0 think time)",
			Note: "extension beyond the paper: every requester pulls the root and interior " +
				"nodes to itself, so the hot upper levels ping-pong instead of being shared",
			Headers: []string{"scheme", "throughput", "moves", "forwards"},
		}
		for i, s := range schemes {
			r := results[i].(btree.Result)
			t.Rows = append(t.Rows, []string{
				s.Name(), fmt.Sprintf("%.3f", r.Throughput),
				fmt.Sprintf("%d", r.ObjectMoves), fmt.Sprintf("%d", r.Forwards),
			})
		}
		return []Table{t}
	}
	return experiment{specs: specs, render: render}
}
