package main

import (
	"math"
	"sort"
)

// quantile returns the exact nearest-rank q-quantile of sorted samples
// (NaN when there are none).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailBand is the half-width, in quantile units, of the band of order
// statistics averaged for a tail percentile.
const tailBand = 0.005

// tailQuantile estimates a tail quantile (q > 0.5) of sorted samples as
// the mean of the order statistics within tailBand of it, so p99 of 1000
// samples averages ranks 985..995 instead of resting on rank 990 alone.
// Quantiles at or below the median are exact.
func tailQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if q <= 0.5 || n == 0 {
		return quantile(sorted, q)
	}
	lo := max(0, int(math.Ceil((q-tailBand)*float64(n)))-1)
	hi := min(n, int(math.Ceil((q+tailBand)*float64(n))))
	sum := 0.0
	for _, v := range sorted[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// median sorts a copy of vs and returns its middle value (the mean of
// the two middle values for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// qualifies reports whether the q-quantile of n samples has at least ten
// samples beyond it, the rule every reported tail percentile must meet.
func qualifies(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// highestQualifying returns the highest of the usual reporting quantiles
// that qualifies for n samples (0 when not even the median does).
func highestQualifying(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if qualifies(n, q) {
			best = q
		}
	}
	return best
}

// maxWindows caps how many windows a measured pass is cut into. A read
// p99 drifts over seconds, so more, shorter windows give its median more
// independent values.
const maxWindows = 20

// windowedQuantile cuts vals, in the order the ops started, into the
// most equal windows (at most maxWindows) in which the q-quantile still
// qualifies, and returns the median over windows of each window's
// q-quantile (tailQuantile). A burst that stalls one window moves one of
// the values the median is taken over, not the result.
func windowedQuantile(vals []float64, q float64) float64 {
	w := max(1, min(maxWindows, int(float64(len(vals))*(1-q)/10+1e-9)))
	per := len(vals) / w
	qs := make([]float64, 0, w)
	for i := 0; i < w; i++ {
		end := (i + 1) * per
		if i == w-1 {
			end = len(vals)
		}
		win := append([]float64(nil), vals[i*per:end]...)
		sort.Float64s(win)
		qs = append(qs, tailQuantile(win, q))
	}
	return median(qs)
}
