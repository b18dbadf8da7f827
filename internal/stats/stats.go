// Package stats provides the measurement primitives used by every
// experiment: time-binned rate series, streaming moments, Jain's fairness
// index, and quantiles. All inputs are plain float64/time values so the
// package has no dependency on the simulator.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Welford accumulates streaming mean and variance using Welford's
// algorithm, which stays numerically stable over long runs. The zero
// value is ready for use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 with fewer than 2 points).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev returns the population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// CoV returns the coefficient of variation (stddev/mean), the paper's
// smoothness metric; it returns 0 when the mean is 0.
func (w *Welford) CoV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.Stddev() / math.Abs(w.mean)
}

// JainIndex computes Jain's fairness index over per-flow allocations:
// (Σx)² / (n·Σx²). It is 1.0 when all allocations are equal and
// approaches 1/n under maximal unfairness. Returns 0 for empty input.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// RateSeries accumulates (time, byteCount) events into fixed-width bins
// and reports the per-bin throughput. It is the standard way experiments
// turn packet arrivals into a rate-over-time figure.
type RateSeries struct {
	BinWidth time.Duration
	start    time.Duration
	started  bool
	bins     []float64 // bytes per bin
}

// NewRateSeries returns a series with the given bin width.
// Width must be positive.
func NewRateSeries(width time.Duration) *RateSeries {
	if width <= 0 {
		panic("stats: non-positive bin width")
	}
	return &RateSeries{BinWidth: width}
}

// Add records that n bytes arrived at time t. The first call fixes the
// series origin; events may arrive out of order as long as they are not
// before the origin.
func (r *RateSeries) Add(t time.Duration, n int) {
	if !r.started {
		r.start = t
		r.started = true
	}
	if t < r.start {
		panic(fmt.Sprintf("stats: event at %v before series origin %v", t, r.start))
	}
	idx := int((t - r.start) / r.BinWidth)
	for len(r.bins) <= idx {
		r.bins = append(r.bins, 0)
	}
	r.bins[idx] += float64(n)
}

// Rates returns throughput per bin in bytes/second.
func (r *RateSeries) Rates() []float64 {
	out := make([]float64, len(r.bins))
	sec := r.BinWidth.Seconds()
	for i, b := range r.bins {
		out[i] = b / sec
	}
	return out
}

// Total returns the sum of all recorded bytes.
func (r *RateSeries) Total() float64 {
	var sum float64
	for _, b := range r.bins {
		sum += b
	}
	return sum
}

// CoV returns the coefficient of variation of the per-bin rates,
// optionally skipping the first `skip` bins (slow-start warm-up).
func (r *RateSeries) CoV(skip int) float64 {
	var w Welford
	rates := r.Rates()
	if skip >= len(rates) {
		return 0
	}
	for _, x := range rates[skip:] {
		w.Add(x)
	}
	return w.CoV()
}
