package mathx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gainRowCase is one preset's GainRowFast call. Every preset uses the
// default path-loss model (exponent 3.7, 128.1 dB at 1 km, 10 m clamp)
// with 8 dB shadowing; they differ in how far the cells of a row are.
type gainRowCase struct {
	name                            string
	refDB, halfExp, invRefM2, minD2 float64
	maxD                            float64 // farthest cell in the row, metres
}

var gainRowCases = []gainRowCase{
	{"smoke", 128.1, 3.7 / 2, 1 / (1000.0 * 1000), 10 * 10, 2500}, // 7 wrap-around cells of 1 km
	{"metro", 128.1, 3.7 / 2, 1 / (1000.0 * 1000), 10 * 10, 4000}, // 37 wrap-around cells of 600 m
	{"city", 128.1, 3.7 / 2, 1 / (1000.0 * 1000), 10 * 10, 2000},  // 24-cell window of 500 m cells
	{"no-clamp", 128.1, 3.7 / 2, 1 / (1000.0 * 1000), 0, 2000},    // zero and subnormal d2 reach the kernel
	{"odd", -3.25, 0.731, 2.5e-3, 1e-9, 1e5},                      // far from the presets
}

// randomGainRow draws a row of shadowing values and squared distances in
// the case's range, some of them inside the clamp.
func randomGainRow(r *rand.Rand, n int, c gainRowCase) (shadow, d2 []float64) {
	shadow, d2 = make([]float64, n), make([]float64, n)
	for i := range shadow {
		shadow[i] = 8 * r.NormFloat64()
		d := r.Float64() * c.maxD
		d2[i] = d * d
	}
	return shadow, d2
}

// requireGainRowBits fails unless GainRowFast writes exactly gainRowGo's
// bits into every element of the row.
func requireGainRowBits(t testing.TB, what string, shadow, d2 []float64, c gainRowCase) {
	t.Helper()
	n := len(shadow)
	got, want := make([]float64, n), make([]float64, n)
	for i := range got {
		got[i] = math.Float64frombits(0x7FF8_0000_DEAD_BEEF) // never written by either kernel
	}
	GainRowFast(got, shadow, d2, c.refDB, c.halfExp, c.invRefM2, c.minD2)
	gainRowGo(want, shadow, d2, c.refDB, c.halfExp, c.invRefM2, c.minD2)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d of %d (shadow %v, d2 %v): GainRowFast %v (%#016x), gainRowGo %v (%#016x)",
				what, i, n, shadow[i], d2[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// skipWithoutAVX2 skips a comparison that would only compare a Go
// reference loop with itself. CI greps for this message, so a runner
// without AVX2 fails the fast-path job instead of passing it vacuously.
func skipWithoutAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2: the kernels run their Go references on this CPU, nothing to compare")
	}
}

// gainRowSpecials are inputs that send a lane down one of gainRowGo's
// fallback branches: non-normal distance ratios, exponents that are NaN or
// beyond ±1020, and non-finite shadowing.
var gainRowSpecials = []struct {
	name       string
	shadow, d2 float64
}{
	{"zero", 0, 0},
	{"negzero", 0, math.Copysign(0, -1)},
	{"min-subnormal", 0, math.SmallestNonzeroFloat64},
	{"max-subnormal", 0, math.Float64frombits(0x000F_FFFF_FFFF_FFFF)},
	{"inf", 0, math.Inf(1)},
	{"neginf", 0, math.Inf(-1)},
	{"nan", 0, math.NaN()},
	{"negative", 0, -250},
	{"far", 0, 1e300},
	{"near", 0, 1e-300},
	{"shadow-nan", math.NaN(), 1e6},
	{"shadow-inf", math.Inf(1), 1e6},
	{"shadow-neginf", math.Inf(-1), 1e6},
	{"shadow-huge", 4000, 1e6},
	{"shadow-tiny", -4000, 1e6},
}

// TestGainRowFastEmptyRow is the regression test for the bounds hint that
// indexed shadow[len(gain)-1] before the loop: an empty row must be a
// no-op, not an index-out-of-range panic.
func TestGainRowFastEmptyRow(t *testing.T) {
	GainRowFast(nil, nil, nil, 128.1, 1.85, 1e-6, 100)
	GainRowFast([]float64{}, []float64{}, []float64{}, 128.1, 1.85, 1e-6, 100)
}

// TestGainRowFastMatchesGo checks that the dispatched kernel writes the
// same bits as the reference loop: at every row length up to 67 (whole
// blocks, a tail, both), with every special input at every lane position
// of a block and in the tail, for each preset's parameters, and on a 1M
// element row.
func TestGainRowFastMatchesGo(t *testing.T) {
	skipWithoutAVX2(t)
	r := rand.New(rand.NewSource(15))
	for _, c := range gainRowCases {
		for n := 0; n <= 67; n++ {
			shadow, d2 := randomGainRow(r, n, c)
			requireGainRowBits(t, fmt.Sprintf("%s/len-%d", c.name, n), shadow, d2, c)
		}
		// 3 blocks and a 3-cell tail: positions 0..11 cover every lane of
		// a block (and a fallback block before, between and after fast
		// ones), 12..14 the tail.
		const n = 15
		for _, sp := range gainRowSpecials {
			for pos := 0; pos < n; pos++ {
				shadow, d2 := randomGainRow(r, n, c)
				shadow[pos], d2[pos] = sp.shadow, sp.d2
				requireGainRowBits(t, fmt.Sprintf("%s/%s@%d", c.name, sp.name, pos), shadow, d2, c)
			}
		}
		// Specials scattered at random: several fallback blocks per row,
		// with fast blocks between them.
		for rep := 0; rep < 50; rep++ {
			shadow, d2 := randomGainRow(r, 64, c)
			for k := 0; k < 6; k++ {
				sp := gainRowSpecials[r.Intn(len(gainRowSpecials))]
				pos := r.Intn(len(d2))
				shadow[pos], d2[pos] = sp.shadow, sp.d2
			}
			requireGainRowBits(t, fmt.Sprintf("%s/scatter-%d", c.name, rep), shadow, d2, c)
		}
	}
	shadow, d2 := randomGainRow(r, 1<<20, gainRowCases[2])
	requireGainRowBits(t, "city/1M", shadow, d2, gainRowCases[2])
}

// FuzzGainRowFast checks the same bit identity on arbitrary rows and
// parameters: raw holds (shadow, d2) pairs as little-endian float64 bits.
func FuzzGainRowFast(f *testing.F) {
	row := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	c := gainRowCases[2]
	f.Add([]byte{}, c.refDB, c.halfExp, c.invRefM2, c.minD2)
	f.Add(row(-3, 4e4, 5, 9e5, 0, 2.5e6, 12, 1e3, 1, 3.6e6), c.refDB, c.halfExp, c.invRefM2, c.minD2)
	f.Add(row(0, 0, 0, 1e6, 0, 1e6, 0, 1e6, 0, 1e6, 0, math.NaN(), 0, 1e6), c.refDB, c.halfExp, c.invRefM2, 0.0)
	f.Add(row(4000, 1e6, 1, 1e6, 2, 1e6, 3, 1e6, 4, 1e6, 5, 1e6, 6, 1e6, 7, 1e6), c.refDB, c.halfExp, c.invRefM2, c.minD2)
	f.Add(row(1, 2, 3, 4, 5, 6, 7, 8), -3.25, 0.731, 2.5e-3, 1e-9)
	f.Fuzz(func(t *testing.T, raw []byte, refDB, halfExp, invRefM2, minD2 float64) {
		skipWithoutAVX2(t)
		n := len(raw) / 16
		shadow, d2 := make([]float64, n), make([]float64, n)
		for i := range shadow {
			shadow[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			d2[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
		}
		requireGainRowBits(t, "fuzz", shadow, d2, gainRowCase{"fuzz", refDB, halfExp, invRefM2, minD2, 0})
	})
}

// BenchmarkGainRowFast times one row at the city window width (24) and
// the metro full-scan width (37), through the dispatcher and through the
// Go reference loop.
func BenchmarkGainRowFast(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, w := range []struct {
		name string
		n    int
		c    gainRowCase
	}{{"w24", 24, gainRowCases[2]}, {"w37", 37, gainRowCases[1]}} {
		shadow, d2 := randomGainRow(r, w.n, w.c)
		gain := make([]float64, w.n)
		c := w.c
		for _, k := range []struct {
			name string
			fn   func(gain, shadow, d2 []float64, refDB, halfExp, invRefM2, minD2 float64)
		}{{"dispatch", GainRowFast}, {"go", gainRowGo}} {
			b.Run(w.name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(gain, shadow, d2, c.refDB, c.halfExp, c.invRefM2, c.minD2)
				}
			})
		}
	}
}
