package mathx

import (
	"math"
	"testing"
)

// TestFastExp10Accuracy sweeps the exponent range the channel kernels
// actually use (long-term gains live around 10^-15..10^2) plus a wide guard
// band and pins the relative error against math.Pow.
func TestFastExp10Accuracy(t *testing.T) {
	worst := 0.0
	for x := -300.0; x <= 300.0; x += 0.0037 {
		got := FastExp10(x)
		want := math.Pow(10, x)
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
	}
	if worst > 1e-12 {
		t.Fatalf("FastExp10 worst relative error %.3e, want <= 1e-12", worst)
	}
}

// TestFastExp10Fallback checks the extreme inputs route through math.Pow.
func TestFastExp10Fallback(t *testing.T) {
	cases := []float64{-400, 400, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, x := range cases {
		got, want := FastExp10(x), math.Pow(10, x)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("FastExp10(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestFastLog10Accuracy sweeps the distance-ratio range of the path loss
// model (squared distances over the reference give 1e-6..1e3) and beyond.
func TestFastLog10Accuracy(t *testing.T) {
	worst := 0.0
	for lg := -30.0; lg <= 30.0; lg += 0.0041 {
		x := math.Pow(10, lg)
		got := FastLog10(x)
		want := math.Log10(x)
		err := math.Abs(got - want)
		if want != 0 {
			if rel := err / math.Abs(want); rel < err {
				err = rel
			}
		}
		if err > worst {
			worst = err
		}
	}
	if worst > 1e-12 {
		t.Fatalf("FastLog10 worst error %.3e, want <= 1e-12", worst)
	}
	// Near-1 inputs exercise the cancellation-prone branch.
	for x := 0.9; x <= 1.1; x += 1e-4 {
		if err := math.Abs(FastLog10(x) - math.Log10(x)); err > 1e-13 {
			t.Fatalf("FastLog10(%v) absolute error %.3e, want <= 1e-13", x, err)
		}
	}
}

// TestFastLog10Fallback checks the degenerate inputs route through
// math.Log10.
func TestFastLog10Fallback(t *testing.T) {
	cases := []float64{0, -1, math.Inf(1), math.NaN()}
	for _, x := range cases {
		got, want := FastLog10(x), math.Log10(x)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("FastLog10(%v) = %v, want %v", x, got, want)
		}
	}
}

func BenchmarkFastExp10(b *testing.B) {
	x := -12.7
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += FastExp10(x)
	}
	_ = sink
}

func BenchmarkPow10(b *testing.B) {
	x := -12.7
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += math.Pow(10, x)
	}
	_ = sink
}

func BenchmarkFastLog10(b *testing.B) {
	x := 0.3721
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += FastLog10(x)
	}
	_ = sink
}

// TestGainRowFastAccuracy pins the fused row kernel to the libm composition
// 10^((shadow-refDB)/10) * (d2*invRefM2)^(-halfExp) across the simulator's
// operating range of shadowing values and distances.
func TestGainRowFastAccuracy(t *testing.T) {
	const refDB, halfExp, refM, minD = 28.6, 1.88, 1.0, 10.0
	invRefM2 := 1 / (refM * refM)
	n := 0
	var shadow, d2, gain []float64
	for s := -30.0; s <= 30; s += 2.5 {
		for d := 1.0; d < 6000; d *= 1.37 {
			shadow = append(shadow, s)
			d2 = append(d2, d*d)
			gain = append(gain, 0)
			n++
		}
	}
	GainRowFast(gain, shadow, d2, refDB, halfExp, invRefM2, minD*minD)
	worst := 0.0
	for i := 0; i < n; i++ {
		d := math.Max(math.Sqrt(d2[i]), minD)
		want := math.Pow(10, (shadow[i]-refDB)/10) * math.Pow(d*d*invRefM2, -halfExp)
		if rel := math.Abs(gain[i]-want) / want; rel > worst {
			worst = rel
		}
	}
	if worst > 1e-12 {
		t.Fatalf("GainRowFast worst relative error %.3e, want <= 1e-12", worst)
	}
}

// TestGainRowFastFallback drives the non-normal input and out-of-range
// exponent branches: a zero distance with no clamp, an inf distance, and a
// shadowing value large enough to overflow the fast exponent assembly. The
// fourth, ordinary cell makes the row one whole four-cell block, so on
// AVX2 CPUs it also drives the block hand-back from the assembly kernel.
func TestGainRowFastFallback(t *testing.T) {
	shadow := []float64{0, 0, 4000, 0}
	d2 := []float64{0, math.Inf(1), 100, 100}
	gain := make([]float64, 4)
	GainRowFast(gain, shadow, d2, 0, 2, 1, 0)
	if !math.IsInf(gain[0], 1) {
		t.Errorf("zero distance with zero clamp: gain = %v, want +Inf", gain[0])
	}
	if gain[1] != 0 {
		t.Errorf("infinite distance: gain = %v, want 0", gain[1])
	}
	want := math.Pow(10, 4000.0/10) * math.Pow(100, -2)
	if rel := math.Abs(gain[2]-want) / want; rel > 1e-9 {
		t.Errorf("overflow-range exponent off by %.3e relative", rel)
	}
	if rel := math.Abs(gain[3]-1e-4) / 1e-4; rel > 1e-12 {
		t.Errorf("ordinary cell in a fallback block: gain = %v, want 1e-4", gain[3])
	}
}
