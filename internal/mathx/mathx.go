// Package mathx provides the numeric kernels shared across the JABA-SD
// simulator: decibel conversions and clamping, the fast base-10
// exponential and logarithm, the channel gain-row kernel and the Jakes
// cosine kernel (each with an AVX2 assembly version on amd64,
// bit-identical to its Go reference).
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
