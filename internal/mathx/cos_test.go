package mathx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// negZero is -0. x*1 + negZero is x for every x, ±0 and NaN included, so
// a = x, b = negZero, t = 1 hands the kernel the argument x itself.
var negZero = math.Copysign(0, -1)

// requireCosBits fails unless CosAffine writes math.Cos(a[k]*t + b[k])'s
// exact bits into every element.
func requireCosBits(t testing.TB, what string, a, b []float64, tt float64) {
	t.Helper()
	got := make([]float64, len(a))
	for i := range got {
		got[i] = math.Float64frombits(0x7FF8_0000_DEAD_BEEF) // never written by either kernel
	}
	CosAffine(got, a, b, tt)
	for k := range a {
		x := a[k]*tt + b[k]
		if want := math.Cos(x); math.Float64bits(got[k]) != math.Float64bits(want) {
			t.Fatalf("%s: lane %d of %d (a %v, b %v, t %v, x %v): CosAffine %v (%#016x), math.Cos %v (%#016x)",
				what, k, len(a), a[k], b[k], tt, x, got[k], math.Float64bits(got[k]), want, math.Float64bits(want))
		}
	}
}

// randomCosArgs draws Jakes-like oscillators: angular Dopplers within
// ±2π·300 Hz and phases in [0, 2π).
func randomCosArgs(r *rand.Rand, n int) (a, b []float64) {
	a, b = make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = 2 * math.Pi * 300 * (2*r.Float64() - 1)
		b[i] = 2 * math.Pi * r.Float64()
	}
	return a, b
}

// cosSpecials are arguments at the edges of math.cos's branches: ±1 ulp
// around multiples of π/4 (where the octant and the odd-j bump flip), −0,
// subnormals, the 2^29 Payne-Hanek threshold and non-finite values.
func cosSpecials() []float64 {
	xs := []float64{0, negZero, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000F_FFFF_FFFF_FFFF), math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e-300}
	for _, m := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 1e3 + 1, 1e6 + 3, 1<<31 - 1, 1 << 31} {
		x := m * math.Pi / 4
		xs = append(xs, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)), -x)
	}
	for _, x := range []float64{1 << 29, 1e5, 1e3} {
		xs = append(xs, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)), -x)
	}
	return xs
}

// TestCosAffineMatchesGo checks that the dispatched kernel writes
// math.Cos's bits: at every length up to 67 (whole blocks, a tail, both),
// at t = 0, frame times, 10^3 s and 10^5 s, with every special argument at
// every lane position of a block and in the tail, with arguments spread
// over 2^-30..2^40, in place, and on a 1M element slice.
func TestCosAffineMatchesGo(t *testing.T) {
	skipWithoutAVX2(t)
	r := rand.New(rand.NewSource(32))
	times := []float64{0, 0.002, 0.25, 1, 19.998, 250.002, 1e3, 1e5, -7.5}
	for _, tt := range times {
		for n := 0; n <= 67; n++ {
			a, b := randomCosArgs(r, n)
			requireCosBits(t, fmt.Sprintf("t=%v/len-%d", tt, n), a, b, tt)
		}
	}
	// 3 blocks and a 3-lane tail: positions 0..11 cover every lane of a
	// block (and a fallback block before, between and after fast ones),
	// 12..14 the tail.
	const n = 15
	for _, x := range cosSpecials() {
		for pos := 0; pos < n; pos++ {
			a, b := randomCosArgs(r, n)
			for k := range a {
				a[k] /= 2 * math.Pi // |x| stays below 2 + 2π at t = 1
			}
			a[pos], b[pos] = x, negZero
			requireCosBits(t, fmt.Sprintf("x=%v@%d", x, pos), a, b, 1)
		}
	}
	// Arguments spread log-uniformly over 2^-30..2^40: blocks that run
	// the kernel next to blocks left to math.Cos, and lanes on both sides
	// of 2^29, where the two reductions round differently.
	for rep := 0; rep < 200; rep++ {
		a, b := make([]float64, 64), make([]float64, 64)
		for k := range a {
			a[k] = math.Ldexp(1+r.Float64(), r.Intn(71)-30)
			if r.Intn(2) == 0 {
				a[k] = -a[k]
			}
			b[k] = negZero
		}
		requireCosBits(t, fmt.Sprintf("wide-%d", rep), a, b, 1)
	}
	// In place, as JakesBatch.SeedUser calls it: x*0 + x is x.
	x, _ := randomCosArgs(r, 37)
	want := make([]float64, len(x))
	for k := range x {
		want[k] = math.Cos(x[k])
	}
	CosAffine(x, x, x, 0)
	for k := range x {
		if math.Float64bits(x[k]) != math.Float64bits(want[k]) {
			t.Fatalf("in place: lane %d: %v, want %v", k, x[k], want[k])
		}
	}
	a, b := randomCosArgs(r, 1<<20)
	requireCosBits(t, "1M", a, b, 1e3+0.002)
}

// FuzzCosAffine checks the same bit identity on arbitrary lanes: raw holds
// (a, b) pairs as little-endian float64 bits.
func FuzzCosAffine(f *testing.F) {
	lanes := func(xs ...float64) []byte {
		raw := make([]byte, 0, 16*len(xs))
		for _, x := range xs {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(negZero))
		}
		return raw
	}
	f.Add([]byte{}, 1.0)
	xs := cosSpecials()
	for i := 0; i+4 <= len(xs); i += 4 {
		f.Add(lanes(xs[i:i+4]...), 1.0)
	}
	f.Add(lanes(math.Pi/4, 3*math.Pi/4, 5*math.Pi/4, 7*math.Pi/4, 9*math.Pi/4), 1.0)
	f.Add(lanes(1, 2, 3, 4, 5, 6, 7, 8), 1e5)
	f.Fuzz(func(t *testing.T, raw []byte, tt float64) {
		skipWithoutAVX2(t)
		n := len(raw) / 16
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			b[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
		}
		requireCosBits(t, "fuzz", a, b, tt)
	})
}

// BenchmarkCosAffine times one Jakes oscillator bank (16 lanes, the
// engine's I or Q sum) through the dispatcher and through the Go
// reference loop. It cycles through 256 banks at advancing frame times, as
// the engine does, so the branch predictor cannot learn math.Cos's octant
// branches.
func BenchmarkCosAffine(b *testing.B) {
	const banks, lanes = 256, 16
	r := rand.New(rand.NewSource(1))
	a, ph := randomCosArgs(r, banks*lanes)
	var dst [lanes]float64
	for _, k := range []struct {
		name string
		fn   func(dst, a, b []float64, t float64)
	}{{"dispatch", CosAffine}, {"go", cosAffineGo}} {
		b.Run("n16/"+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := i % banks * lanes
				k.fn(dst[:], a[lo:lo+lanes], ph[lo:lo+lanes], 250+0.002*float64(i/banks))
			}
		})
	}
}
