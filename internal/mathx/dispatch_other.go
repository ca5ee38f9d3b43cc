//go:build !amd64

package mathx

// useAVX2 is false off amd64: GainRowFast is gainRowGo and CosAffine is
// cosAffineGo.
const useAVX2 = false

// GainRowFast fills gain[k] with the linear long-term channel gain of
// gainRowGo; see fastmath.go.
func GainRowFast(gain, shadow, d2 []float64, refDB, halfExp, invRefM2, minD2 float64) {
	gainRowGo(gain, shadow, d2, refDB, halfExp, invRefM2, minD2)
}

// CosAffine sets dst[k] = math.Cos(a[k]*t + b[k]); see fastmath.go.
func CosAffine(dst, a, b []float64, t float64) {
	cosAffineGo(dst, a, b, t)
}
