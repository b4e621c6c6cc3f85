package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.count != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("zero histogram not empty")
	}
	for _, v := range []uint64{10, 20, 30, 40} {
		h.Observe(v)
	}
	if h.count != 4 {
		t.Errorf("count = %d", h.count)
	}
	if h.Mean() != 25 {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.min != 10 || h.max != 40 {
		t.Errorf("min/max = %d/%d", h.min, h.max)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	if err := quick.Check(func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		var max uint64
		for _, v := range vals {
			h.Observe(uint64(v))
			if uint64(v) > max {
				max = uint64(v)
			}
		}
		// Quantiles are monotone and bounded by the max observation.
		q50, q95, q100 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(1.0)
		return q50 <= q95 && q95 <= q100 && q100 <= max*2+1 && q100 >= 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileUpperBound(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	// p50 of 1..1000 is 500; the bucketed bound may be up to the top of
	// its power-of-two bucket (511) but never below the true value.
	q := h.Quantile(0.5)
	if q < 500 || q > 1023 {
		t.Errorf("p50 bound = %d, want within [500,1023]", q)
	}
	if h.Quantile(1.0) != 1000 {
		t.Errorf("p100 = %d, want clamped to max 1000", h.Quantile(1.0))
	}
}

func TestHistogramZeroValues(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(0)
	if h.Quantile(0.5) != 0 || h.max != 0 {
		t.Errorf("zeros: p50=%d max=%d", h.Quantile(0.5), h.max)
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	if h.String() != "no observations" {
		t.Error("empty string form")
	}
	h.Observe(100)
	for _, want := range []string{"n=1", "mean=100", "p95"} {
		if !strings.Contains(h.String(), want) {
			t.Errorf("summary %q missing %q", h.String(), want)
		}
	}
}
