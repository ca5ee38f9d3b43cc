// Package stats provides the streaming and batch statistics used to report
// simulation results: Welford running moments (Running), raw-sample
// quantiles (Sample), Student-t confidence intervals for the
// handful-of-replications case, and time-weighted averages of
// piecewise-constant signals (TimeWeighted).
//
// Zero values are ready to use, and every accessor is total: empty
// accumulators report 0 rather than NaN, because the simulator prints
// these values verbatim into tables and CSV files (see the edge-case
// tests in internal/sim). Accumulators are not safe for concurrent
// mutation.
package stats

import (
	"math"
	"sort"
)

// Running accumulates streaming mean and variance with Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n        int64
	mean, m2 float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Mean returns the sample mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 with fewer than 2 samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n < 2 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// ConfidenceInterval95 returns the half-width of an approximate 95%
// confidence interval for the mean using the normal critical value. For the
// handful-of-replications case the Student-t value for n-1 degrees of freedom
// is used instead (table up to 30 df).
func (r *Running) ConfidenceInterval95() float64 {
	if r.n < 2 {
		return 0
	}
	return tCritical95(int(r.n-1)) * r.StdErr()
}

// tCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom (falls back to 1.96 for df > 30).
func tCritical95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// Sample collects raw observations for quantile computation.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Mean returns the sample mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t / float64(len(s.xs))
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics. Returns 0 when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// TimeWeighted accumulates the time average of a piecewise-constant signal,
// e.g. the number of active bursts or the cell loading over simulated time.
type TimeWeighted struct {
	lastT    float64
	lastV    float64
	area     float64
	duration float64
	started  bool
}

// Observe records that the signal took value v starting at time t. The value
// is held until the next Observe or Finish call.
func (tw *TimeWeighted) Observe(t, v float64) {
	if tw.started && t > tw.lastT {
		dt := t - tw.lastT
		tw.area += tw.lastV * dt
		tw.duration += dt
	}
	tw.lastT = t
	tw.lastV = v
	tw.started = true
}

// Finish closes the signal at time t (holding the last observed value).
func (tw *TimeWeighted) Finish(t float64) {
	if tw.started && t > tw.lastT {
		dt := t - tw.lastT
		tw.area += tw.lastV * dt
		tw.duration += dt
		tw.lastT = t
	}
}

// Mean returns the time-weighted average observed so far.
func (tw *TimeWeighted) Mean() float64 {
	if tw.duration == 0 {
		return 0
	}
	return tw.area / tw.duration
}
