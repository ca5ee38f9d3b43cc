package rng

import "math"

// Ziggurat sampler for the standard normal distribution (Marsaglia & Tsang,
// 2000), used by the simulator's fast shadowing kernel. One draw costs a
// single Uint64 plus a table lookup in ~98.9% of calls, versus Box-Muller's
// log/sqrt/sincos; the price is that StdNormalFast consumes the underlying
// uniform stream differently from StdNormal, so a given Source must stick to
// one of the two to stay reproducible. The engine's exact reference path
// (-exact-vtaoc) keeps Box-Muller; the fast path uses this sampler on its
// own dedicated shadowing substreams.

const zigLayers = 128

// zigR is the start of the tail region, chosen with the layer areas so the
// 128 rectangles cover the half-normal density exactly.
const zigR = 3.442619855899

var (
	// zigX[i] is the right edge of rectangle i; zigX[0] > zigR covers the
	// tail's area, zigX[zigLayers] = 0.
	zigX [zigLayers + 1]float64
	// zigF[i] = exp(-zigX[i]^2/2), the density at the rectangle edges.
	zigF [zigLayers + 1]float64
)

func init() {
	const v = 9.91256303526217e-3 // area of each rectangle (and of the tail)
	f := math.Exp(-0.5 * zigR * zigR)
	zigX[0] = v / f
	zigX[1] = zigR
	for i := 2; i < zigLayers; i++ {
		x := math.Sqrt(-2 * math.Log(v/zigX[i-1]+math.Exp(-0.5*zigX[i-1]*zigX[i-1])))
		zigX[i] = x
	}
	zigX[zigLayers] = 0
	for i := 0; i <= zigLayers; i++ {
		zigF[i] = math.Exp(-0.5 * zigX[i] * zigX[i])
	}
}

// StdNormalFast returns a standard Gaussian variate using the ziggurat
// method. It is distribution-equivalent to StdNormal but draws a different
// number of uniforms per variate, so do not mix the two on one Source when
// reproducibility matters.
func (r *Source) StdNormalFast() float64 {
	for {
		u := r.Uint64()
		i := int(u & (zigLayers - 1))
		// 53-bit uniform in [0, 1) from the remaining high bits.
		f := float64(u>>11) / (1 << 53)
		x := f * zigX[i]
		if x < zigX[i+1] {
			// Inside the next rectangle, accept without evaluating the
			// density: the common case. The sign bit (bit 7 of u) is
			// applied with an OR into the IEEE sign position rather than a
			// branch — it is a fair coin, so a branch here would mispredict
			// half the time in the frame loop's hottest call.
			return math.Float64frombits(math.Float64bits(x) | (u&zigLayers)<<56)
		}
		neg := u&zigLayers != 0
		if i == 0 {
			// Tail beyond zigR: Marsaglia's exact tail algorithm.
			for {
				x = -math.Log(r.Float64Open()) / zigR
				y := -math.Log(r.Float64Open())
				if y+y > x*x {
					x += zigR
					if neg {
						return -x
					}
					return x
				}
			}
		}
		// Wedge between the rectangles: accept against the true density.
		if zigF[i]+r.Float64()*(zigF[i+1]-zigF[i]) < math.Exp(-0.5*x*x) {
			if neg {
				return -x
			}
			return x
		}
	}
}
