package mathx

import "math"

// cosAffineAVX2 runs cosAffineGo's arithmetic on the four-lane blocks
// [i, i+4), [i+4, i+8), ... and returns the start of the first block it
// did not write: either fewer than four lanes remain from there, or that
// block holds an argument that is not finite or has |x| >= 2^29.
//
//go:noescape
func cosAffineAVX2(dst, a, b []float64, i int, t float64) int

// cosConsts holds the constants of Go's pure-Go math.cos (math/sin.go),
// each broadcast to four lanes. PI4A/B/C and the polynomial coefficients
// are copied as the same decimal literals, and 4/π is the same constant
// expression, so both round to float64 identically.
type cosConsts struct {
	absMask, two               [4]uint64
	reduceMax, m4pi, one, half [4]float64
	pi4a, pi4b, pi4c           [4]float64
	s0, s1, s2, s3, s4, s5     [4]float64
	c0, c1, c2, c3, c4, c5     [4]float64
	oddBump                    [4]uint32
}

var cosK = cosConsts{
	absMask:   bcastBits(^uint64(1 << 63)),
	two:       bcastBits(2),
	reduceMax: bcast(1 << 29), // math's reduceThreshold: Payne-Hanek above it
	m4pi:      bcast(4 / math.Pi),
	one:       bcast(1),
	half:      bcast(0.5),
	pi4a:      bcast(7.85398125648498535156e-1),   // 0x3fe921fb40000000
	pi4b:      bcast(3.77489470793079817668e-8),   // 0x3e64442d00000000
	pi4c:      bcast(2.69515142907905952645e-15),  // 0x3ce8469898cc5170
	s0:        bcast(1.58962301576546568060e-10),  // 0x3de5d8fd1fd19ccd
	s1:        bcast(-2.50507477628578072866e-8),  // 0xbe5ae5e5a9291f5d
	s2:        bcast(2.75573136213857245213e-6),   // 0x3ec71de3567d48a1
	s3:        bcast(-1.98412698295895385996e-4),  // 0xbf2a01a019bfdf03
	s4:        bcast(8.33333333332211858878e-3),   // 0x3f8111111110f7d0
	s5:        bcast(-1.66666666666666307295e-1),  // 0xbfc5555555555548
	c0:        bcast(-1.13585365213876817300e-11), // 0xbda8fa49a0861a9b
	c1:        bcast(2.08757008419747316778e-9),   // 0x3e21ee9d7b4e3f05
	c2:        bcast(-2.75573141792967388112e-7),  // 0xbe927e4f7eac4bc6
	c3:        bcast(2.48015872888517045348e-5),   // 0x3efa01a019c844f5
	c4:        bcast(-1.38888888888730564116e-3),  // 0xbf56c16c16c14f91
	c5:        bcast(4.16666666666665929218e-2),   // 0x3fa555555555554b
	oddBump:   [4]uint32{1, 1, 1, 1},
}

// CosAffine sets dst[k] = math.Cos(a[k]*t + b[k]) for every k, bit for bit
// with cosAffineGo; see fastmath.go for how the two implementations split
// the slice. dst may alias a or b.
func CosAffine(dst, a, b []float64, t float64) {
	n := len(dst)
	if !useAVX2 || n < 4 {
		cosAffineGo(dst, a, b, t)
		return
	}
	// The assembly reads a[:n] and b[:n] unchecked.
	_, _ = a[n-1], b[n-1]
	i := 0
	for {
		i = cosAffineAVX2(dst, a, b, i, t)
		if n-i < 4 {
			break
		}
		cosAffineGo(dst[i:i+4], a[i:i+4], b[i:i+4], t)
		i += 4
	}
	cosAffineGo(dst[i:], a[i:], b[i:], t)
}
