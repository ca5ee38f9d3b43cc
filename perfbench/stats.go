package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave above
// it. A tail with fewer is set by a handful of outliers, so it is refused
// rather than reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, or an
// error when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, errors.New("percentile of no samples")
	}
	k := max(int(math.Ceil(p*float64(n))), 1)
	if n-k < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", p*100, n, n-k, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It is for small sets such as repeated set-up times,
// where no tail is claimed.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// segments is how many equal windows a run is cut into for its rates and
// service latencies; the reported figure is the median over the windows,
// so a passing slowdown of the host in a few of them does not move it.
const segments = 10

// windows returns the window of [0, end] each offset in at falls into, when
// [0, end] is cut into k equal windows.
func windows(at []time.Duration, end time.Duration, k int) []int {
	w := make([]int, len(at))
	for i, t := range at {
		w[i] = min(max(int(int64(t)*int64(k)/int64(end)), 0), k-1)
	}
	return w
}

// segmentRate cuts [0, end] into segments equal windows, counts the events
// completed (at offsets done) in each, and returns the median of the
// windows' rates.
func segmentRate(done []time.Duration, end time.Duration) float64 {
	rates := make([]float64, segments)
	for _, w := range windows(done, end, segments) {
		rates[w]++
	}
	for i := range rates {
		rates[i] /= end.Seconds() / segments
	}
	return median(rates)
}

// segmentPercentile cuts [0, end] into up to segments equal windows, each
// holding enough of the samples xs (taken at offsets at) for its
// p-quantile, and returns the median of the windows' p-quantiles. A
// slowdown of the host confined to one window moves the result no more
// than any other window does.
func segmentPercentile(xs []float64, at []time.Duration, end time.Duration, p float64) (float64, error) {
	need := int(math.Ceil(minBeyond/(1-p))) + minBeyond
	k := max(min(segments, len(xs)/need), 1)
	byWindow := make([][]float64, k)
	for i, w := range windows(at, end, k) {
		byWindow[w] = append(byWindow[w], xs[i])
	}
	qs := make([]float64, k)
	for w, ys := range byWindow {
		q, err := percentile(ys, p)
		if err != nil {
			return 0, err
		}
		qs[w] = q
	}
	return median(qs), nil
}

// ms and us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
