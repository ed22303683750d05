package main

import (
	"math"
	"time"

	"proteus/internal/numeric"
	"proteus/internal/tsdb"
)

// median returns the median of xs (0 for an empty slice), interpolating
// between the two middle values of an even-length slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return numeric.Quantile(xs, 0.5)
}

// durationsToSeconds converts a duration sample to seconds.
func durationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// tailLadder lists the percentiles a timing's tail may be reported at,
// highest first, each with the share of samples beyond it in parts per
// million (kept integral so the rule has no rounding edge).
var tailLadder = []struct {
	p      float64
	beyond int
}{{99.99, 100}, {99.9, 1000}, {99, 10000}, {90, 100000}, {50, 500000}}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least ten of n samples beyond it, so a reported tail never rests on a
// handful of values. ok is false when even the median has fewer than ten
// samples above it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, t := range tailLadder {
		if n*t.beyond/1_000_000 >= 10 {
			return t.p, true
		}
	}
	return 0, false
}

// histQuantile returns the q-quantile of a latency histogram, interpolating
// linearly inside the bucket that holds the rank. The histogram's own
// Quantile returns bucket upper bounds, which repeat exactly across runs of
// similar inputs; interpolation keeps the estimate inside the same bucket
// (within ~3% of the true value) while still moving with the sample.
func histQuantile(h *tsdb.Histogram, q float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for _, b := range h.Buckets() {
		c := float64(b.Count)
		if cum+c >= rank {
			frac := (rank - cum) / c
			v := float64(b.Low) + frac*float64(b.High+1-b.Low)
			v = math.Max(float64(h.Min()), math.Min(float64(h.Max()), v))
			return time.Duration(v)
		}
		cum += c
	}
	return time.Duration(h.Max())
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return numeric.Quantile(xs, p/100)
}

// maxOf returns the largest element of xs (0 for an empty slice).
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return numeric.Max(xs)
}
