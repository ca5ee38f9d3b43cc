// Package mathx provides small numeric helpers shared across the JABA-SD
// simulator: decibel conversions, Gaussian tail functions, safe clamping and
// tolerant floating point comparison.
//
// All functions are pure and safe for concurrent use.
package mathx

import "math"

// DB converts a linear power ratio to decibels. DB(0) returns -Inf.
func DB(linear float64) float64 {
	return 10 * math.Log10(linear)
}

// Linear converts a decibel value to a linear power ratio.
func Linear(db float64) float64 {
	return math.Pow(10, db/10)
}

// QFunc is the Gaussian tail probability Q(x) = P(N(0,1) > x).
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// QInv is the inverse of QFunc computed by bisection on [-40, 40].
// It returns +Inf for p <= 0 and -Inf for p >= 1.
func QInv(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p >= 1 {
		return math.Inf(-1)
	}
	lo, hi := -40.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if QFunc(mid) > p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Clamp restricts v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AlmostEqual reports whether a and b are equal within both an absolute and a
// relative tolerance of tol. It treats NaN as never equal and infinities as
// equal only when identical.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// MeanFloat returns the arithmetic mean of xs, or 0 for an empty slice.
func MeanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SumFloat returns the sum of xs.
func SumFloat(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// MaxFloat returns the maximum of xs, or -Inf for an empty slice.
func MaxFloat(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// MinFloat returns the minimum of xs, or +Inf for an empty slice.
func MinFloat(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// MaxInt returns the larger of a and b.
func MaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MinInt returns the smaller of a and b.
func MinInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Lerp linearly interpolates between a and b with parameter t in [0,1].
func Lerp(a, b, t float64) float64 {
	return a + (b-a)*t
}

// Sq returns x squared.
func Sq(x float64) float64 { return x * x }
