package harness

import (
	"testing"
)

// renderKV runs the ext-kv sweep at the given worker count and returns
// the rendered tables plus their concatenated text.
func renderKV(t *testing.T, workers int) ([]Table, string) {
	t.Helper()
	o := quick
	o.Workers = workers
	tabs, err := Run("ext-kv", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != len(kvHeteros()) {
		t.Fatalf("ext-kv rendered %d tables, want %d", len(tabs), len(kvHeteros()))
	}
	var out string
	for _, tb := range tabs {
		out += tb.String()
	}
	return tabs, out
}

// TestKVWorkerIdentity pins the determinism contract: the rendered
// ext-kv tables are byte-identical at any worker count.
func TestKVWorkerIdentity(t *testing.T) {
	_, serial := renderKV(t, 1)
	_, pooled := renderKV(t, 4)
	if serial != pooled {
		t.Fatalf("ext-kv rendered differently at workers=1 vs workers=4:\n%s\nvs\n%s", serial, pooled)
	}
}

// kvThr extracts a policy row's throughput at the skewed workload
// (column 3: thr at zipf=0.99).
func kvThr(t *testing.T, tb Table, policy string) float64 {
	t.Helper()
	return parse(t, rowByScheme(t, tb, policy)[3])
}

// TestKVCrossover pins the extension's headline claim: the machine's
// speed profile decides the best static mechanism, and the speed-aware
// cost model tracks it on both sides of the crossover.
//
// On the uniform machine shared memory wins (its record accesses execute
// on the requesting frontends, and nothing is slow). On the gradient
// machine the frontends are the slowest processors, so migrating the
// computation to the faster storage tier beats shared memory — the best
// static flips from static:sm to static:cm. The cost model must match
// the winner on the uniform machine and at least match every static on
// the gradient machine (per-processor pricing lets it beat them by
// mixing mechanisms across origins).
func TestKVCrossover(t *testing.T) {
	tabs, _ := renderKV(t, 0)
	uniform, gradient := tabs[0], tabs[2]

	// Uniform machine: static:sm is the best static.
	smU := kvThr(t, uniform, "static:sm")
	for _, p := range []string{"static:rpc", "static:cm"} {
		if v := kvThr(t, uniform, p); v >= smU {
			t.Errorf("uniform: %s (%.3f) should lose to static:sm (%.3f)", p, v, smU)
		}
	}
	// Gradient machine: the best static differs from the uniform winner.
	cmG, smG := kvThr(t, gradient, "static:cm"), kvThr(t, gradient, "static:sm")
	if cmG <= smG {
		t.Errorf("gradient: static:cm (%.3f) should beat static:sm (%.3f) — no crossover", cmG, smG)
	}
	// The adaptive cost model tracks the winner on both sides. The 2%%
	// slack absorbs sampling noise without letting a wrong pick through
	// (picking the loser costs far more than 2%%).
	cmlU, cmlG := kvThr(t, uniform, "costmodel"), kvThr(t, gradient, "costmodel")
	if cmlU < 0.98*smU {
		t.Errorf("uniform: costmodel (%.3f) does not track static:sm (%.3f)", cmlU, smU)
	}
	for _, p := range []string{"static:rpc", "static:cm", "static:sm"} {
		if v := kvThr(t, gradient, p); cmlG < 0.98*v {
			t.Errorf("gradient: costmodel (%.3f) loses to %s (%.3f)", cmlG, p, v)
		}
	}
}

// TestKVLatencyPercentilesRendered checks every table carries a merged
// latency histogram and monotone percentile columns.
func TestKVLatencyPercentilesRendered(t *testing.T) {
	tabs, _ := renderKV(t, 0)
	for _, tb := range tabs {
		if tb.Latency == nil {
			t.Errorf("%s (%s): no merged latency histogram", tb.ID, tb.Title)
			continue
		}
		p50, p99 := tb.Latency.Quantile(0.50), tb.Latency.Quantile(0.99)
		if p50 == 0 || p99 < p50 {
			t.Errorf("%s (%s): bad percentiles p50=%d p99=%d", tb.ID, tb.Title, p50, p99)
		}
	}
}
