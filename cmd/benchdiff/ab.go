package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
)

// The A/B mode runs two built benchmark binaries alternately and
// compares every metric of their last JSON lines:
//
//	benchdiff -ab [-pairs N] OLD NEW -- <args>
//
// Pair i runs OLD then NEW when i is even and NEW then OLD when it is
// odd, so a drift in the host's load hits both sides alike. Each run's
// last line on standard output must be a compbench result line,
// {"metrics": {name: {"value": v, ...}}, ...}. For each metric the
// table gives both sides' medians and quartiles, the change of the
// medians, the pairs NEW won (it was better than OLD in that pair;
// ties count for neither) and the exact two-sided sign-test p over the
// untied pairs. BENCHMARK.json in the working directory, when there is
// one, gives each metric's direction and, for the end-to-end metrics,
// its bound, a fraction of the median: a metric whose OLD interquartile
// range is wider than its bound is marked "unresolved", since its own
// spread hides a change of that size.

// specPath is the benchmark declaration the A/B mode reads metric
// directions and bounds from.
const specPath = "BENCHMARK.json"

// metricSpec is one metric's entry in the spec file.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specFile is the part of BENCHMARK.json the A/B mode reads.
type specFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads the metric specs by name; a missing file gives none.
func loadSpec(path string) (map[string]metricSpec, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f specFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	spec := make(map[string]metricSpec)
	for _, m := range append(f.EndToEnd, f.PerLayer...) {
		spec[m.Name] = m
	}
	return spec, nil
}

// parseResult returns the metric values of the last non-empty line of
// a benchmark run's standard output.
func parseResult(out []byte) (map[string]float64, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var r struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil || r.Metrics == nil {
		return nil, fmt.Errorf("last line is not a result line: %q", last)
	}
	vals := make(map[string]float64, len(r.Metrics))
	for k, m := range r.Metrics {
		vals[k] = m.Value
	}
	return vals, nil
}

// abRow is one metric's comparison over the pairs.
type abRow struct {
	name       string
	old, new   [3]float64 // quartiles: q1, median, q3
	won, lost  int        // pairs NEW was better, worse
	p          float64    // exact two-sided sign-test p over won+lost pairs
	direction  string     // "lower", "higher", or "" when unknown
	bound      float64    // 0 when the spec gives none
	unresolved bool       // OLD's IQR is wider than the bound
}

// compare builds one row per metric present in every run of both sides,
// in name order. olds[i] and news[i] are pair i's results.
func compare(olds, news []map[string]float64, spec map[string]metricSpec) []abRow {
	var names []string
	for k := range olds[0] {
		names = append(names, k)
	}
	sort.Strings(names)
	var rows []abRow
	for _, k := range names {
		ov, ok := column(olds, k)
		nv, ok2 := column(news, k)
		if !ok || !ok2 {
			continue
		}
		r := abRow{name: k, old: quartiles(ov), new: quartiles(nv)}
		s := spec[k]
		r.direction, r.bound = s.Better, s.Bound
		for i := range ov {
			d := nv[i] - ov[i]
			if r.direction == "higher" {
				d = -d
			}
			switch {
			case d < 0:
				r.won++
			case d > 0:
				r.lost++
			}
		}
		r.p = signTest(r.won, r.lost)
		if r.bound > 0 && r.old[1] != 0 {
			r.unresolved = (r.old[2]-r.old[0])/math.Abs(r.old[1]) > r.bound
		}
		rows = append(rows, r)
	}
	return rows
}

// column returns metric k across runs, and whether every run has it.
func column(runs []map[string]float64, k string) ([]float64, bool) {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		v, ok := r[k]
		if !ok {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}

// quartiles returns the first quartile, median and third quartile of
// vals, interpolating linearly between order statistics.
func quartiles(vals []float64) [3]float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	at := func(q float64) float64 {
		x := q * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// signTest returns the exact two-sided sign-test p of won wins against
// lost losses under the null hypothesis that either is equally likely.
func signTest(won, lost int) float64 {
	n := won + lost
	if n == 0 {
		return 1
	}
	k := min(won, lost)
	tail, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return min(1, 2*tail/math.Pow(2, float64(n)))
}

// printRows renders the comparison table.
func printRows(w io.Writer, rows []abRow, pairs int) {
	fmt.Fprintf(w, "%-26s %12s %12s %8s  %-30s %-22s %7s %7s  %s\n",
		"metric", "old median", "new median", "change", "old q1..q3 (IQR)", "new q1..q3", "won", "p", "note")
	for _, r := range rows {
		change := "-"
		if r.old[1] != 0 {
			change = fmt.Sprintf("%+.1f%%", (r.new[1]-r.old[1])/math.Abs(r.old[1])*100)
		}
		iqr := "-"
		if r.old[1] != 0 {
			iqr = fmt.Sprintf("%.1f%%", (r.old[2]-r.old[0])/math.Abs(r.old[1])*100)
		}
		var note []string
		switch {
		case r.won == 0 && r.lost == 0:
			note = append(note, "identical")
		case r.direction == "":
			note = append(note, "direction unknown")
		}
		if r.unresolved {
			note = append(note, fmt.Sprintf("unresolved: old IQR above the %.0f%% bound", r.bound*100))
		}
		fmt.Fprintf(w, "%-26s %12.6g %12.6g %8s  %-30s %-22s %7s %7.4f  %s\n",
			r.name, r.old[1], r.new[1], change,
			fmt.Sprintf("%.4g..%.4g (%s)", r.old[0], r.old[2], iqr),
			fmt.Sprintf("%.4g..%.4g", r.new[0], r.new[2]),
			fmt.Sprintf("%d/%d", r.won, pairs), r.p, strings.Join(note, "; "))
	}
}

// runAB is the -ab mode's main: args are OLD NEW -- <benchmark args>.
func runAB(args []string, pairs int) int {
	sep := slices.Index(args, "--")
	if sep != 2 || pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -ab [-pairs N] OLD NEW -- <args>")
		return 2
	}
	bins, benchArgs := args[:2], args[3:]
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	results := [2][]map[string]float64{}
	for i := 0; i < pairs; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, side := range order {
			var stdout bytes.Buffer
			cmd := exec.Command(bins[side], benchArgs...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchdiff: pair %d, %s: %v\n", i+1, bins[side], err)
				return 1
			}
			vals, err := parseResult(stdout.Bytes())
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchdiff: pair %d, %s: %v\n", i+1, bins[side], err)
				return 1
			}
			results[side] = append(results[side], vals)
		}
		fmt.Fprintf(os.Stderr, "benchdiff: pair %d of %d done\n", i+1, pairs)
	}
	fmt.Printf("old: %s\nnew: %s\nargs: %s\npairs: %d, order flipped every pair\n",
		bins[0], bins[1], strings.Join(benchArgs, " "), pairs)
	printRows(os.Stdout, compare(results[0], results[1], spec), pairs)
	return 0
}
