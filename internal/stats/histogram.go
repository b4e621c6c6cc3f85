package stats

import (
	"fmt"
	"math"
)

// Histogram accumulates values into power-of-two buckets — enough
// resolution for latency distributions without unbounded memory. The
// zero value is ready to use.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

func bucketOf(v uint64) int {
	b := 0
	for v > 0 {
		b++
		v >>= 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// AddFrom merges another histogram's observations into h, as if every
// value o observed had been observed by h. Merge order does not matter.
func (h *Histogram) AddFrom(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for b, n := range o.buckets {
		h.buckets[b] += n
	}
}

// Mean returns the average observation.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// top of the bucket containing it. Bucket widths are powers of two, so
// the answer is within 2x of exact — adequate for tail reporting.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for b, n := range h.buckets {
		seen += n
		if seen >= target {
			if b == 0 {
				return 0
			}
			top := uint64(1)<<b - 1
			if top > h.max {
				top = h.max
			}
			return top
		}
	}
	return h.max
}

// String renders a compact summary line.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "no observations"
	}
	return fmt.Sprintf("n=%d mean=%.0f min=%d p50<=%d p95<=%d p99<=%d max=%d",
		h.count, h.Mean(), h.min, h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.max)
}
