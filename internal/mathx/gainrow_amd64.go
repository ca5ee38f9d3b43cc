package mathx

// useAVX2 reports whether GainRowFast and CosAffine run their AVX2
// assembly kernels.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set and XCR0 enabling the
// SSE and AVX state).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gainRowAVX2 runs gainRowGo's arithmetic on the four-cell blocks
// [i, i+4), [i+4, i+8), ... of the row and returns the start of the first
// block it did not write: either fewer than four cells remain from there,
// or that block holds a lane gainRowGo sends down a fallback branch.
//
//go:noescape
func gainRowAVX2(gain, shadow, d2 []float64, i int, refDB, halfExp, invRefM2, minD2 float64) int

// gainRowConsts holds gainRowGo's constants, each broadcast to four lanes
// so the assembly can use them as memory operands. Every value is written
// as the same constant expression gainRowGo uses, so both are rounded to
// float64 identically.
type gainRowConsts struct {
	one, half, sqrt2Half, twoInvLn2, dbToLog2, yMax, rndShift, ln2 [4]float64
	l3, l5, l7, l9, l11, l13                                       [4]float64
	e6, e24, e120, e720, e5040, e40320, e362880, e3628800          [4]float64
	expField, expClear, absMask, expBias, magic, magicE0           [4]uint64
}

var gainRowK = gainRowConsts{
	one: bcast(1), half: bcast(0.5), sqrt2Half: bcast(sqrt2 / 2),
	twoInvLn2: bcast(2 * invLn2), dbToLog2: bcast(log2Of10 / 10),
	yMax: bcast(1020), rndShift: bcast(rndShift), ln2: bcast(ln2),
	l3: bcast(1.0 / 3), l5: bcast(1.0 / 5), l7: bcast(1.0 / 7),
	l9: bcast(1.0 / 9), l11: bcast(1.0 / 11), l13: bcast(1.0 / 13),
	e6: bcast(1.0 / 6), e24: bcast(1.0 / 24), e120: bcast(1.0 / 120),
	e720: bcast(1.0 / 720), e5040: bcast(1.0 / 5040), e40320: bcast(1.0 / 40320),
	e362880: bcast(1.0 / 362880), e3628800: bcast(1.0 / 3628800),
	expField: bcastBits(0x7FF),                // exponent field, after >> 52
	expClear: bcastBits(^uint64(0x7FF << 52)), // keeps sign and mantissa
	absMask:  bcastBits(^uint64(1 << 63)),     // clears the sign
	expBias:  bcastBits(1023),
	magic:    bcastBits(0x4330000000000000),        // 2^52; OR-ing in k < 2^52 gives 2^52 + k
	magicE0:  bcastBits(0x4330000000000000 + 1022), // 2^52 + 1022
}

func bcast(x float64) [4]float64 { return [4]float64{x, x, x, x} }

func bcastBits(x uint64) [4]uint64 { return [4]uint64{x, x, x, x} }

// GainRowFast fills gain[k] with the linear long-term channel gain of
// gainRowGo, bit for bit; see fastmath.go for how the two implementations
// split the row.
func GainRowFast(gain, shadow, d2 []float64, refDB, halfExp, invRefM2, minD2 float64) {
	n := len(gain)
	if !useAVX2 || n < 4 {
		gainRowGo(gain, shadow, d2, refDB, halfExp, invRefM2, minD2)
		return
	}
	// The assembly reads shadow[:n] and d2[:n] unchecked.
	_, _ = shadow[n-1], d2[n-1]
	i := 0
	for {
		i = gainRowAVX2(gain, shadow, d2, i, refDB, halfExp, invRefM2, minD2)
		if n-i < 4 {
			break
		}
		gainRowGo(gain[i:i+4], shadow[i:i+4], d2[i:i+4], refDB, halfExp, invRefM2, minD2)
		i += 4
	}
	gainRowGo(gain[i:], shadow[i:], d2[i:], refDB, halfExp, invRefM2, minD2)
}
