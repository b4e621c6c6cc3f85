// Package harness regenerates every table and figure in the paper's
// evaluation section (§4). Each experiment builds a fresh simulated
// machine, runs the paper's workload, and renders a text table with the
// paper's reported value alongside the measured one where the paper
// gives a number.
//
// Every experiment is decomposed into independent RunSpec jobs — one
// fully-configured machine build + run each — executed on a host-side
// worker pool (Options.Workers). Tables are assembled from the results
// in deterministic spec order, so the output is byte-identical for any
// worker count.
//
// Absolute cycle counts differ from the paper's (our substrate is a
// reimplemented simulator, not the authors' Proteus setup); the claims
// under reproduction are the orderings and rough factors — see
// EXPERIMENTS.md.
package harness

import (
	"fmt"
	"strings"

	"compmig/internal/apps/btree"
	"compmig/internal/apps/countnet"
	"compmig/internal/core"
	"compmig/internal/fault"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// Options controls experiment scale and execution.
type Options struct {
	// Quick shrinks the measurement windows for tests and smoke runs.
	Quick bool
	// Seed makes the whole suite reproducible; 0 means 1.
	Seed uint64
	// Workers is the number of host goroutines running simulation jobs
	// concurrently: 0 means one per available CPU, 1 runs everything
	// serially in the calling goroutine. Results do not depend on it.
	Workers int
	// Faults applies a deterministic fault plan to every workload
	// experiment (the fig2/table/smallnode/ext sweeps; the fig1 and
	// table5 microbenchmarks are exempt). A nil or all-zero plan changes
	// nothing — output stays byte-identical to a fault-free run. The
	// ext-fault experiment ignores this field: it sweeps its own plans.
	Faults *fault.Spec
	// Shards, when >= 1, runs parallel-eligible simulations on that many
	// sharded event engines (countnet CM/RPC points; everything else
	// falls back to the serial engine — see machine.Config.Shards).
	// Results are identical for any Shards >= 1 but differ from the
	// serial engine's, so the pinned-baseline suites keep Shards == 0.
	Shards int
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) windows() (warmup, measure sim.Time) {
	if o.Quick {
		return 10000, 60000
	}
	return 20000, 300000
}

// Table is one rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
	// Latency, when an experiment measures per-request latency (ext-kv),
	// carries the merged latency distribution across the table's runs so
	// bench output can report percentiles. The text and Markdown
	// renderers ignore it.
	Latency *stats.Histogram
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored Markdown table.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Note)
	}
	return b.String()
}

// btreeSchemes lists the nine rows of Tables 1 and 2 in the paper's order.
func btreeSchemes() []core.Scheme {
	return []core.Scheme{
		{Mechanism: core.SharedMem},
		{Mechanism: core.RPC},
		{Mechanism: core.RPC, HWMessaging: true},
		{Mechanism: core.RPC, Replication: true},
		{Mechanism: core.RPC, Replication: true, HWMessaging: true},
		{Mechanism: core.Migrate},
		{Mechanism: core.Migrate, HWMessaging: true},
		{Mechanism: core.Migrate, Replication: true},
		{Mechanism: core.Migrate, Replication: true, HWMessaging: true},
	}
}

// lowContentionSchemes lists the rows of Tables 3 and 4.
func lowContentionSchemes() []core.Scheme {
	return []core.Scheme{
		{Mechanism: core.SharedMem},
		{Mechanism: core.Migrate, Replication: true},
		{Mechanism: core.Migrate, Replication: true, HWMessaging: true},
	}
}

// countnetSchemes lists the five curves of Figures 2 and 3.
func countnetSchemes() []core.Scheme {
	return []core.Scheme{
		{Mechanism: core.SharedMem},
		{Mechanism: core.Migrate, HWMessaging: true},
		{Mechanism: core.Migrate},
		{Mechanism: core.RPC, HWMessaging: true},
		{Mechanism: core.RPC},
	}
}

// abPolicyStatic, when true, reroutes every scheme-driven experiment
// config through the policy engine pinned to the scheme's own mechanism
// (Policy: "static:<mech>"). The A/B identity suite uses it to assert
// that the policy layer reproduces every rendered table byte-identically
// when it always decides what the static scheme would have done.
var abPolicyStatic bool

func abPolicy(m core.Mechanism) string {
	if !abPolicyStatic {
		return ""
	}
	return "static:" + strings.ToLower(m.String())
}

// threadCounts are Figure 2/3's x axis.
func threadCounts(quick bool) []int {
	if quick {
		return []int{8, 32, 64}
	}
	return []int{8, 16, 32, 48, 64}
}

// ExperimentIDs lists every experiment id Run accepts, excluding "all".
func ExperimentIDs() []string {
	return []string{"fig1", "fig2", "fig3", "table1", "table2", "table3",
		"table4", "table5", "smallnode", "ext-objmig", "ext-policy",
		"ext-fault", "ext-kv", "ext-recovery", "ext-ablation", "scale"}
}

// plan maps an experiment id to the sweeps it needs plus an optional
// table-ID filter (for ids that share a sweep, like fig2/fig3).
func plan(id string, o Options) ([]experiment, string, error) {
	switch id {
	case "fig1":
		return []experiment{fig1Exp(o)}, "", nil
	case "fig2":
		return []experiment{countnetExp(o)}, "FIG2", nil
	case "fig3":
		return []experiment{countnetExp(o)}, "FIG3", nil
	case "table1":
		return []experiment{btree12Exp(o)}, "TABLE1", nil
	case "table2":
		return []experiment{btree12Exp(o)}, "TABLE2", nil
	case "table3":
		return []experiment{btree34Exp(o)}, "TABLE3", nil
	case "table4":
		return []experiment{btree34Exp(o)}, "TABLE4", nil
	case "table5":
		return []experiment{table5Exp(o)}, "", nil
	case "smallnode":
		return []experiment{smallNodeExp(o)}, "", nil
	case "ext-objmig":
		return []experiment{objMigExp(o), btreeObjMigExp(o)}, "", nil
	case "ext-policy":
		return []experiment{policyExp(o), btreePolicyExp(o)}, "", nil
	case "ext-fault":
		return []experiment{faultExp(o), btreeFaultExp(o)}, "", nil
	case "ext-kv":
		// ext-kv stays out of "all" like ext-fault and scale: "all" is the
		// pinned byte-identity baseline and must not change shape.
		return []experiment{kvExp(o)}, "", nil
	case "ext-recovery":
		// ext-recovery also stays out of "all": every point runs durable,
		// so it can never be part of the fault-free identity baseline.
		return []experiment{recoveryExp(o)}, "", nil
	case "ext-ablation":
		// ext-ablation stays out of "all" too, which keeps its pinned shape.
		return []experiment{ablationExp(o)}, "", nil
	case "scale":
		return []experiment{scaleExp(o)}, "", nil
	case "all":
		// ext-fault and scale stay out of "all" on purpose: "all" is the
		// byte-identity baseline the A/B suite pins, and it must remain a
		// fault-free run of moderate size (the scale sweep builds
		// 256-1024 processor machines).
		return []experiment{
			fig1Exp(o), countnetExp(o), btree12Exp(o), btree34Exp(o),
			table5Exp(o), smallNodeExp(o), objMigExp(o), btreeObjMigExp(o),
			policyExp(o), btreePolicyExp(o),
		}, "", nil
	default:
		return nil, "", fmt.Errorf("harness: unknown experiment %q (want fig1, fig2, fig3, table1..table5, smallnode, ext-objmig, ext-policy, ext-fault, ext-kv, ext-recovery, ext-ablation, scale, all)", id)
	}
}

// Run dispatches an experiment by id: one of ExperimentIDs, or "all"
// (every paper table and figure plus ext-objmig and ext-policy). The
// specs of every selected experiment are pooled onto one set of
// workers, and the tables are assembled in the experiments' declared
// order.
func Run(id string, o Options) ([]Table, error) {
	exps, filter, err := plan(id, o)
	if err != nil {
		return nil, err
	}
	var specs []RunSpec
	for _, ex := range exps {
		specs = append(specs, ex.specs...)
	}
	results := runSpecs(specs, o.workers())
	var tables []Table
	off := 0
	for _, ex := range exps {
		tables = append(tables, ex.render(results[off:off+len(ex.specs)])...)
		off += len(ex.specs)
	}
	if filter != "" {
		var kept []Table
		for _, t := range tables {
			if t.ID == filter {
				kept = append(kept, t)
			}
		}
		tables = kept
	}
	return tables, nil
}

// countnetExp decomposes the Figure 2/3 sweep into one spec per
// (think time, scheme, thread count) point. Its renderer emits the four
// tables in the order FIG2 think=0, FIG2 think=10000, FIG3 think=0,
// FIG3 think=10000.
func countnetExp(o Options) experiment {
	warmup, measure := o.windows()
	threads := threadCounts(o.Quick)
	thinks := []uint64{0, 10000}
	schemes := countnetSchemes()
	var specs []RunSpec
	for _, think := range thinks {
		for _, s := range schemes {
			for _, n := range threads {
				cfg := countnet.Config{
					Threads: n, Think: think, Scheme: s,
					Seed: o.seed(), Warmup: warmup, Measure: measure,
					Policy: abPolicy(s.Mechanism), Faults: o.Faults,
					Shards: o.Shards,
				}
				specs = append(specs, RunSpec{
					Label: fmt.Sprintf("countnet/%s/think=%d/threads=%d", s.Name(), think, n),
					Run:   func() any { return countnet.RunExperiment(cfg) },
				})
			}
		}
	}
	render := func(results []any) []Table {
		var fig2, fig3 []Table
		i := 0
		for _, think := range thinks {
			t2 := Table{
				ID:    "FIG2",
				Title: fmt.Sprintf("Counting network throughput, requests/1000 cycles (think=%d)", think),
				Note:  "paper shape: CM above RPC; HW helps both; SM and CM w/HW close at high contention",
			}
			t3 := Table{
				ID:    "FIG3",
				Title: fmt.Sprintf("Counting network bandwidth, words/10 cycles (think=%d)", think),
				Note:  "paper shape: SM consumes the most under contention; CM under half of RPC and SM",
			}
			t2.Headers = []string{"scheme"}
			for _, n := range threads {
				t2.Headers = append(t2.Headers, fmt.Sprintf("%d", n))
			}
			t3.Headers = t2.Headers
			for _, s := range schemes {
				row2 := []string{s.Name()}
				row3 := []string{s.Name()}
				for range threads {
					r := results[i].(countnet.Result)
					i++
					row2 = append(row2, fmt.Sprintf("%.2f", r.Throughput))
					row3 = append(row3, fmt.Sprintf("%.2f", r.Bandwidth))
				}
				t2.Rows = append(t2.Rows, row2)
				t3.Rows = append(t3.Rows, row3)
			}
			fig2 = append(fig2, t2)
			fig3 = append(fig3, t3)
		}
		return append(fig2, fig3...)
	}
	return experiment{specs: specs, render: render}
}

// paperTable1 and paperTable2 are the values printed in the paper.
var paperTable1 = map[string]string{
	"SM": "1.837", "RPC": "0.3828", "RPC w/HW": "0.5133",
	"RPC w/repl.": "0.6060", "RPC w/repl. & HW": "0.7830",
	"CP": "0.8018", "CP w/HW": "0.9570", "CP w/repl.": "1.155",
	"CP w/repl. & HW": "1.341",
}

var paperTable2 = map[string]string{
	"SM": "75", "RPC": "7.3", "RPC w/HW": "9.9",
	"RPC w/repl.": "7.0", "RPC w/repl. & HW": "9.3",
	"CP": "3.5", "CP w/HW": "4.3", "CP w/repl.": "3.8",
	"CP w/repl. & HW": "3.9",
}

// btree12Exp decomposes the nine-scheme B-tree experiment at zero think
// time; its renderer emits Table 1 (throughput) then Table 2 (bandwidth).
func btree12Exp(o Options) experiment {
	warmup, measure := o.windows()
	schemes := btreeSchemes()
	var specs []RunSpec
	for _, s := range schemes {
		cfg := btree.Config{
			Scheme: s, Think: 0, Seed: o.seed(),
			Warmup: warmup, Measure: measure,
			Policy: abPolicy(s.Mechanism), Faults: o.Faults,
		}
		specs = append(specs, RunSpec{
			Label: "table1/" + s.Name(),
			Run:   func() any { return btree.RunExperiment(cfg) },
		})
	}
	render := func(results []any) []Table {
		t1 := Table{
			ID:      "TABLE1",
			Title:   "B-tree throughput, ops/1000 cycles (0 think time)",
			Headers: []string{"scheme", "measured", "paper"},
			Note:    "paper shape: SM > CP > RPC; replication and hardware support each help",
		}
		t2 := Table{
			ID:      "TABLE2",
			Title:   "B-tree bandwidth, words/10 cycles (0 think time)",
			Headers: []string{"scheme", "measured", "paper"},
			Note:    "paper shape: SM uses an order of magnitude more bandwidth; CP the least",
		}
		for i, s := range schemes {
			r := results[i].(btree.Result)
			t1.Rows = append(t1.Rows, []string{s.Name(), fmt.Sprintf("%.3f", r.Throughput), paperTable1[s.Name()]})
			t2.Rows = append(t2.Rows, []string{s.Name(), fmt.Sprintf("%.2f", r.Bandwidth), paperTable2[s.Name()]})
		}
		return []Table{t1, t2}
	}
	return experiment{specs: specs, render: render}
}

var paperTable3 = map[string]string{
	"SM": "1.071", "CP w/repl.": "0.9816", "CP w/repl. & HW": "1.053",
}

var paperTable4 = map[string]string{
	"SM": "16", "CP w/repl.": "2.5", "CP w/repl. & HW": "2.7",
}

// btree34Exp decomposes the low-contention B-tree experiment
// (think=10000); its renderer emits Tables 3 and 4.
func btree34Exp(o Options) experiment {
	warmup, measure := o.windows()
	schemes := lowContentionSchemes()
	var specs []RunSpec
	for _, s := range schemes {
		cfg := btree.Config{
			Scheme: s, Think: 10000, Seed: o.seed(),
			Warmup: warmup, Measure: measure,
			Policy: abPolicy(s.Mechanism), Faults: o.Faults,
		}
		specs = append(specs, RunSpec{
			Label: "table3/" + s.Name(),
			Run:   func() any { return btree.RunExperiment(cfg) },
		})
	}
	render := func(results []any) []Table {
		t3 := Table{
			ID:      "TABLE3",
			Title:   "B-tree throughput, ops/1000 cycles (10000 think time)",
			Headers: []string{"scheme", "measured", "paper"},
			Note:    "paper shape: with light root contention, CP w/repl. & HW matches SM",
		}
		t4 := Table{
			ID:      "TABLE4",
			Title:   "B-tree bandwidth, words/10 cycles (10000 think time)",
			Headers: []string{"scheme", "measured", "paper"},
			Note:    "paper shape: SM still uses several times CP's bandwidth (coherence upkeep)",
		}
		for i, s := range schemes {
			r := results[i].(btree.Result)
			t3.Rows = append(t3.Rows, []string{s.Name(), fmt.Sprintf("%.3f", r.Throughput), paperTable3[s.Name()]})
			t4.Rows = append(t4.Rows, []string{s.Name(), fmt.Sprintf("%.2f", r.Bandwidth), paperTable4[s.Name()]})
		}
		return []Table{t3, t4}
	}
	return experiment{specs: specs, render: render}
}

// smallNodeExp decomposes §4.2's fanout-10 variant: with the bottleneck
// below the root relieved, CP w/repl. closes most of the gap to SM.
func smallNodeExp(o Options) experiment {
	warmup, measure := o.windows()
	schemes := []core.Scheme{
		{Mechanism: core.SharedMem},
		{Mechanism: core.Migrate, Replication: true},
	}
	var specs []RunSpec
	for _, s := range schemes {
		p := btree.DefaultParams()
		p.Fanout = 10
		cfg := btree.Config{
			Params: p, Scheme: s, Think: 0, Seed: o.seed(),
			Warmup: warmup, Measure: measure,
			Policy: abPolicy(s.Mechanism), Faults: o.Faults,
		}
		specs = append(specs, RunSpec{
			Label: "smallnode/" + s.Name(),
			Run:   func() any { return btree.RunExperiment(cfg) },
		})
	}
	render := func(results []any) []Table {
		t := Table{
			ID:      "SMALLNODE",
			Title:   "B-tree throughput with fanout 10, ops/1000 cycles (0 think time)",
			Headers: []string{"scheme", "measured", "paper"},
			Note:    "paper: SM 2.427 vs CP w/repl. 2.076 — SM still ahead, but the gap narrows",
		}
		paper := map[string]string{"SM": "2.427", "CP w/repl.": "2.076"}
		for i, s := range schemes {
			r := results[i].(btree.Result)
			t.Rows = append(t.Rows, []string{s.Name(), fmt.Sprintf("%.3f", r.Throughput), paper[s.Name()]})
		}
		return []Table{t}
	}
	return experiment{specs: specs, render: render}
}
