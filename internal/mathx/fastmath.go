package mathx

import "math"

// Fast transcendental kernels for the simulator's batched physics path.
//
// The frame loop evaluates 10^x and log10(x) once per (user, cell) pair per
// frame — tens of thousands of calls — and the libm Pow/Log10 routines
// dominate the CPU profile. FastExp10 and FastLog10 trade the last few bits
// of precision for a 3-5x speedup: both stay within ~1e-12 relative error
// over the simulator's operating range, far below the physical modelling
// error, but they are NOT bit-identical to math.Pow/math.Log10. The engine
// therefore uses them only on the default fast path; the -exact-vtaoc
// reference path keeps the libm calls so golden outputs stay byte-identical.
//
// GainRowFast, the fused per-row channel kernel, has two implementations
// with the same output bits. gainRowGo below is the reference. On amd64
// CPUs with AVX2 (checked once at package init) GainRowFast dispatches to
// an assembly kernel (gainrow_amd64.s) that evaluates four cells per block
// with the same IEEE operations in the same order: no FMA, a true divide
// for (m-1)/(m+1), the renormalisation as compare + blend, both Estrin
// trees with gainRowGo's association and the exponent moves done exactly.
// A block holding any lane that gainRowGo sends down a fallback branch (a
// non-normal distance ratio, or an exponent that is NaN or outside ±1020)
// is left to gainRowGo, and so is the tail of fewer than four cells. Other
// architectures call gainRowGo directly. The fast-path goldens under
// testdata/golden were produced on amd64: compilers for architectures
// that fuse multiply-adds may round gainRowGo differently.
//
// CosAffine, the Jakes fading kernel, sets dst[k] = math.Cos(a[k]*t + b[k])
// and is exact: cosAffineGo below is a math.Cos loop, and on amd64 CPUs
// with AVX2 an assembly kernel (cos_amd64.s) evaluates four lanes per
// block by transliterating Go's pure-Go math.cos: the argument as a
// separate multiply and add (no FMA), the octant j = uint64(x*4/Pi) by a
// truncating conversion (exact, since x*4/Pi < 2^31 there) with the
// odd-j bump, the three-part PI4A/B/C reduction, both degree-5
// polynomials in math.cos's association, and the octant's branch and sign
// as a blend and a sign-bit flip. math.Cos reduces arguments of 2^29 and
// above (its reduceThreshold) with Payne-Hanek instead, so a block holding
// such a lane, or a non-finite one, is left to cosAffineGo, as is the tail
// of fewer than four lanes. The output is math.Cos's, bit for bit, on
// every CPU.

const (
	log2Of10 = 3.3219280948873623478703194294894 // log2(10)
	ln2Hi    = 6.93147180369123816490e-01        // high bits of ln(2)
	ln2Lo    = 1.90821492927058770002e-10        // ln(2) - ln2Hi
	invLn10  = 4.34294481903251816668e-01        // 1/ln(10)
	invLn2   = 1.44269504088896340736e+00        // 1/ln(2) = log2(e)
	rndShift = 6755399441055744.0                // 1.5 * 2^52, round-to-nearest shifter
	sqrt2    = 1.41421356237309504880168872421
)

// FastExp10 returns 10^x with ~1e-13 relative error for |x| <= 300. Inputs
// outside the safely representable range fall back to math.Pow.
func FastExp10(x float64) float64 {
	y := x * log2Of10 // 10^x = 2^y
	if y != y || y > 1020 || y < -1020 {
		return math.Pow(10, x)
	}
	// Split y = n + f with n integral and |f| <= 0.5, then evaluate
	// 2^f = exp(f*ln2) by a degree-10 Taylor polynomial (|f*ln2| <= 0.347,
	// truncation error below 3e-13 relative) and assemble 2^n exactly from
	// the exponent bits.
	n := math.Round(y)
	t := (y - n) * ln2
	// Horner evaluation of exp(t) = sum t^k/k!, k = 0..10.
	p := 1.0 / 3628800
	p = p*t + 1.0/362880
	p = p*t + 1.0/40320
	p = p*t + 1.0/5040
	p = p*t + 1.0/720
	p = p*t + 1.0/120
	p = p*t + 1.0/24
	p = p*t + 1.0/6
	p = p*t + 0.5
	p = p*t + 1
	p = p*t + 1
	// 2^n for n in [-1022, 1023] straight from the IEEE-754 exponent field.
	bits := uint64(int64(n)+1023) << 52
	return p * math.Float64frombits(bits)
}

const ln2 = ln2Hi + ln2Lo

// FastLog10 returns log10(x) for finite x > 0 with ~1e-14 absolute and
// ~1e-13 relative error. Non-positive, NaN and infinite inputs fall back to
// math.Log10.
func FastLog10(x float64) float64 {
	if !(x > 0) || math.IsInf(x, 1) {
		return math.Log10(x)
	}
	// x = m * 2^e with m in [0.5, 1); renormalise m into [1/sqrt2, sqrt2)
	// so the atanh series argument stays small.
	m, e := math.Frexp(x)
	if m < sqrt2/2 {
		m *= 2
		e--
	}
	// ln(m) = 2*atanh(s) with s = (m-1)/(m+1), |s| <= 0.1716; the s^15 term
	// is below 3e-13 so a 7-term odd series suffices.
	s := (m - 1) / (m + 1)
	s2 := s * s
	series := 1.0 / 13
	series = series*s2 + 1.0/11
	series = series*s2 + 1.0/9
	series = series*s2 + 1.0/7
	series = series*s2 + 1.0/5
	series = series*s2 + 1.0/3
	series = series*s2 + 1
	lnM := 2 * s * series
	return (lnM + float64(e)*ln2) * invLn10
}

// gainRowGo fills gain[k] with the linear long-term channel gain
//
//	10^((shadow[k] - refDB)/10) * (max(d2[k], minD2) * invRefM2)^(-halfExp)
//
// for a whole row of cells at once, where d2 holds SQUARED distances. It is
// the fusion of the per-cell FastLog10 + FastExp10 chain the channel batch
// kernel evaluates, with the same series degrees and therefore the same
// ~1e-12 relative accuracy — but roughly twice the throughput, for two
// reasons. First, the arithmetic stays in base 2 end to end: the distance
// log feeds the exponent bit assembly directly, skipping the log2->log10->
// log2 round trip of the composed calls. Second, both polynomial cores use
// Estrin's scheme instead of Horner's: the frame loop's cost is bounded by
// the serial multiply-add dependency chain, not arithmetic throughput, and
// the shorter Estrin trees let the CPU overlap adjacent cells. Non-normal
// inputs (subnormal, zero, inf, NaN) and out-of-range exponents fall back
// to the scalar fast kernels, which in turn fall back to libm.
//
// It is the reference for GainRowFast: every implementation must match it
// bit for bit.
func gainRowGo(gain, shadow, d2 []float64, refDB, halfExp, invRefM2, minD2 float64) {
	const c = log2Of10 / 10 // dB -> log2
	if len(gain) == 0 {
		return
	}
	_ = shadow[len(gain)-1]
	_ = d2[len(gain)-1]
	for k := range gain {
		v := d2[k]
		if v < minD2 {
			v = minD2
		}
		v *= invRefM2
		bits := math.Float64bits(v)
		expField := int64(bits>>52) & 0x7FF
		var y float64
		if expField == 0 || expField == 0x7FF {
			y = (shadow[k]-refDB)*c - halfExp*log2Of10*FastLog10(v)
		} else {
			// v = m * 2^e with m in [0.5, 1), renormalised into
			// [1/sqrt2, sqrt2) exactly as in FastLog10.
			m := math.Float64frombits((bits &^ (0x7FF << 52)) | (1022 << 52))
			e := expField - 1022
			if m < sqrt2/2 {
				m *= 2
				e--
			}
			// log2(m) = 2*atanh(s)/ln2, 7-term odd series in s, Estrin form.
			s := (m - 1) / (m + 1)
			w := s * s
			w2 := w * w
			series := (1 + w*(1.0/3)) + w2*(1.0/5+w*(1.0/7)) +
				(w2*w2)*((1.0/9+w*(1.0/11))+w2*(1.0/13))
			log2m := (2 * invLn2) * s * series
			y = (shadow[k]-refDB)*c - halfExp*(float64(e)+log2m)
		}
		// gain = 2^y, assembled as in FastExp10 but with the degree-10
		// exp(t) Taylor core in Estrin form.
		if y != y || y > 1020 || y < -1020 {
			gain[k] = FastExp10(y / log2Of10)
			continue
		}
		// Round to nearest via the 1.5*2^52 shift trick (round-half-even
		// where math.Round is half-away — they differ only on exact
		// half-integers, and |y - n| <= 0.5 either way).
		shifted := y + rndShift
		n := shifted - rndShift
		t := (y - n) * ln2
		t2 := t * t
		t4 := t2 * t2
		p := (1 + t) + t2*(0.5+t*(1.0/6)) +
			t4*((1.0/24+t*(1.0/120))+t2*(1.0/720+t*(1.0/5040))) +
			(t4*t4)*((1.0/40320+t*(1.0/362880))+t2*(1.0/3628800))
		gain[k] = p * math.Float64frombits(uint64(int64(n)+1023)<<52)
	}
}

// cosAffineGo sets dst[k] = math.Cos(a[k]*t + b[k]) for every k, the
// product rounded before the sum. It is the reference for CosAffine: every
// implementation must match it bit for bit.
func cosAffineGo(dst, a, b []float64, t float64) {
	if len(dst) == 0 {
		return
	}
	_, _ = a[len(dst)-1], b[len(dst)-1]
	for k := range dst {
		dst[k] = math.Cos(a[k]*t + b[k])
	}
}
