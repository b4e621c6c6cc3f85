package main

import (
	"fmt"
	"math"
	"testing"
)

// canned returns the result line a compbench run prints last, after
// some earlier output.
func canned(wall, sim float64) []byte {
	return []byte(fmt.Sprintf("warming up\n"+
		`{"correct":true,"attempted":4,"failed":0,"metrics":{`+
		`"wall_s":{"value":%g,"unit":"s"},"sim_thr_gmean":{"value":%g,"unit":"ops/kcycle"}}}`+"\n", wall, sim))
}

// TestCompareCannedPairs runs the A/B analysis over canned result
// lines: a lower-is-better metric NEW lowers in every pair, an identical
// simulated metric, and a higher-is-better metric NEW lowers whose OLD
// spread is wider than its bound.
func TestCompareCannedPairs(t *testing.T) {
	spec := map[string]metricSpec{
		"wall_s":        {Name: "wall_s", Better: "lower", Bound: 0.2},
		"sim_thr_gmean": {Name: "sim_thr_gmean", Better: "higher", Bound: 0.1},
	}
	var olds, news []map[string]float64
	for i := 0; i < 10; i++ {
		o, err := parseResult(canned(0.90+0.01*float64(i%3), 1.956))
		if err != nil {
			t.Fatal(err)
		}
		n, err := parseResult(canned(0.75+0.01*float64(i%2), 1.956))
		if err != nil {
			t.Fatal(err)
		}
		olds, news = append(olds, o), append(news, n)
	}
	rows := compare(olds, news, spec)
	if len(rows) != 2 || rows[0].name != "sim_thr_gmean" || rows[1].name != "wall_s" {
		t.Fatalf("rows %+v, want sim_thr_gmean and wall_s in name order", rows)
	}
	sim, wall := rows[0], rows[1]
	if sim.won != 0 || sim.lost != 0 || sim.p != 1 || sim.unresolved {
		t.Errorf("identical metric: %+v, want no wins, no losses, p 1", sim)
	}
	if wall.won != 10 || wall.lost != 0 || wall.unresolved {
		t.Errorf("wall_s: won %d lost %d unresolved %v, want 10, 0, false", wall.won, wall.lost, wall.unresolved)
	}
	if want := 2 / 1024.0; math.Abs(wall.p-want) > 1e-12 {
		t.Errorf("wall_s sign-test p %v, want %v", wall.p, want)
	}
	if math.Abs(wall.old[1]-0.91) > 1e-9 || math.Abs(wall.new[1]-0.755) > 1e-9 {
		t.Errorf("wall_s medians %v and %v, want 0.91 and 0.755", wall.old[1], wall.new[1])
	}

	// A higher-is-better metric that NEW lowers loses every pair; an
	// OLD spread of 50% of the median is wider than the 20% bound.
	wide := []map[string]float64{{"sim_thr_gmean": 1}, {"sim_thr_gmean": 2}, {"sim_thr_gmean": 3}, {"sim_thr_gmean": 2}}
	lower := []map[string]float64{{"sim_thr_gmean": 0.5}, {"sim_thr_gmean": 1}, {"sim_thr_gmean": 1}, {"sim_thr_gmean": 1}}
	spec["sim_thr_gmean"] = metricSpec{Better: "higher", Bound: 0.2}
	r := compare(wide, lower, spec)[0]
	if r.won != 0 || r.lost != 4 || !r.unresolved {
		t.Errorf("wide metric: %+v, want 0 won, 4 lost, unresolved", r)
	}
}

// TestSignTest checks the exact two-sided p against hand-computed
// binomial tails.
func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		won, lost int
		p         float64
	}{
		{0, 0, 1},
		{5, 5, 1},
		{10, 0, 2.0 / 1024},
		{9, 1, 2 * 11.0 / 1024},
		{8, 2, 2 * 56.0 / 1024},
		{1, 9, 2 * 11.0 / 1024},
	} {
		if got := signTest(c.won, c.lost); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.won, c.lost, got, c.p)
		}
	}
}

// TestParseResultRejectsNonResultLine asserts a run whose last line is
// not a result line is an error, not an empty result.
func TestParseResultRejectsNonResultLine(t *testing.T) {
	for _, out := range []string{"", "compbench: failed\n", `{"correct":false}`} {
		if _, err := parseResult([]byte(out)); err == nil {
			t.Errorf("parseResult(%q) accepted a non-result line", out)
		}
	}
}
