package channel

import (
	"math"

	"jabasd/internal/mathx"
	"jabasd/internal/rng"
)

// Batch is the structure-of-arrays form of the long-term channel (path loss
// x correlated shadowing) for many users against many cells: the per-(user,
// cell) shadowing state and linear gains live in flat users x cells slices,
// and one value-typed rng.Source per pair replaces the per-pair heap
// objects. A link costs 56 bytes: shadowing and gain (8 each) plus its
// 40-byte stream, Box-Muller spare included. The spare is live on both
// kernels — AdvanceExact draws Normal, and so does Window.Retarget for every
// cell entering a window — so it is not split off. The distances are not
// state: the caller passes each advance a row it has just filled, from
// scratch it owns (one row per worker), so no users x cells distance slab is
// kept. Two advance kernels share this state:
//
//   - AdvanceExact reproduces the scalar reference — Shadowing.Advance
//     followed by PathLossModel.LossDB and math.Pow — operation for
//     operation, so its gains are bit-identical to a per-user Link.Update
//     chain seeded from the same substreams. The engine's -exact-vtaoc
//     reference path uses it to keep golden outputs byte-identical.
//   - AdvanceFast evaluates the same model through mathx.FastExp10 and
//     FastLog10 on squared distances and draws the shadowing innovations
//     with the ziggurat sampler. Results deviate from the reference only at
//     ~1e-12 relative in the gains (plus the statistically equivalent but
//     different shadowing sample path), for a several-fold speedup.
//
// Both kernels hoist the AR(1) correlation rho = exp(-travelled/decorr) and
// its complement out of the per-cell loop — the travelled distance is the
// user's, identical for all cells — which is exact, not an approximation.
type Batch struct {
	users int
	cells int

	pathLoss PathLossModel
	sigmaDB  float64
	decorrM  float64

	// Flattened users x cells state; user u owns [u*cells, (u+1)*cells).
	shadowDB []float64    // AR(1) shadowing state, dB
	gain     []float64    // long-term linear power gain
	src      []rng.Source // per-(user,cell) shadowing substreams
	ready    []bool       // per user: initial shadowing draw done
}

// NewBatch allocates the SoA channel state for users x cells links. Every
// user must be seeded with SeedUser before advancing.
func NewBatch(users, cells int, pl PathLossModel, sigmaDB, decorrM float64) *Batch {
	return &Batch{
		users:    users,
		cells:    cells,
		pathLoss: pl,
		sigmaDB:  sigmaDB,
		decorrM:  decorrM,
		shadowDB: make([]float64, users*cells),
		gain:     make([]float64, users*cells),
		src:      make([]rng.Source, users*cells),
		ready:    make([]bool, users),
	}
}

// SeedUser derives user u's per-cell shadowing substreams as parent.Split(
// base+k) for k = 0..cells-1, the same order the scalar engine splits its
// per-cell Shadowing sources, writing each into the batch in place.
func (b *Batch) SeedUser(u int, parent *rng.Source, base uint64) {
	off := u * b.cells
	for k := 0; k < b.cells; k++ {
		parent.SplitInto(&b.src[off+k], base+uint64(k))
	}
}

// Ready reports whether user u has taken its initial shadowing draw.
func (b *Batch) Ready(u int) bool { return b.ready[u] }

// GainRow returns user u's linear long-term gain row, updated in place by
// the advance kernels; callers may alias it for the lifetime of the batch.
func (b *Batch) GainRow(u int) []float64 {
	return b.gain[u*b.cells : (u+1)*b.cells]
}

// ShadowRow returns user u's shadowing state row in dB.
func (b *Batch) ShadowRow(u int) []float64 {
	return b.shadowDB[u*b.cells : (u+1)*b.cells]
}

// AdvanceExact advances user u's shadowing by travelled metres and
// recomputes the per-cell gains from dist, the user's metre distance to
// each cell (at least Cells() long; only the first Cells() entries are
// read), reproducing the scalar Shadowing.Advance + LossDB + math.Pow chain
// bit for bit.
func (b *Batch) AdvanceExact(u int, dist []float64, travelled float64) {
	off := u * b.cells
	shadow := b.shadowDB[off : off+b.cells]
	gain := b.gain[off : off+b.cells]
	dist = dist[:b.cells]
	src := b.src[off : off+b.cells]
	if !b.ready[u] {
		for k := range shadow {
			shadow[k] = src[k].Normal(0, b.sigmaDB)
		}
		b.ready[u] = true
	} else {
		if travelled < 0 {
			travelled = 0
		}
		rho := math.Exp(-travelled / math.Max(b.decorrM, 1e-9))
		q := math.Sqrt(1 - rho*rho)
		for k := range shadow {
			shadow[k] = rho*shadow[k] + q*src[k].Normal(0, b.sigmaDB)
		}
	}
	for k := range gain {
		lossDB := b.pathLoss.LossDB(dist[k])
		gain[k] = math.Pow(10, (-lossDB+shadow[k])/10)
	}
}

// AdvancePausedExact advances user u through a zero-travel frame on the
// exact path: the AR(1) update with rho = 1 leaves the shadowing state — and
// therefore every downstream gain — bitwise unchanged, but the scalar
// reference still consumes one Gaussian per cell, so the draws are taken and
// discarded to keep the streams aligned. Callers may skip every downstream
// recompute for the user afterwards.
func (b *Batch) AdvancePausedExact(u int) {
	off := u * b.cells
	src := b.src[off : off+b.cells]
	for k := range src {
		src[k].Normal(0, b.sigmaDB)
	}
}

// AdvanceFast advances user u by travelled metres using the fast kernels,
// reading SQUARED distances from dist (saving the square roots: the path
// loss needs only log10(d); length as for AdvanceExact). A zero-travel
// frame on an initialised user is a no-op: unlike the exact path it takes
// no Gaussian draws, and the state and streams stay bitwise unchanged.
func (b *Batch) AdvanceFast(u int, dist []float64, travelled float64) {
	off := u * b.cells
	shadow := b.shadowDB[off : off+b.cells]
	gain := b.gain[off : off+b.cells]
	dist = dist[:b.cells]
	src := b.src[off : off+b.cells]

	pl := b.pathLoss
	// Exponent of the gain: (shadow - refDB)/10 - (n/2)*log10(d^2/refM^2).
	halfExp := pl.Exponent / 2
	invRefM2 := 1 / (pl.ReferenceM * pl.ReferenceM)
	minD2 := pl.MinDistance * pl.MinDistance

	if !b.ready[u] {
		for k := range shadow {
			shadow[k] = b.sigmaDB * src[k].StdNormalFast()
		}
		b.ready[u] = true
	} else if travelled > 0 {
		// One frame of travel is a tiny fraction of the decorrelation
		// distance, so exp(-ratio) is evaluated by a degree-4 Taylor
		// polynomial when ratio < 1/32 (error < 3e-10 relative, invisible
		// next to the sampled innovations) instead of libm Exp.
		ratio := travelled / math.Max(b.decorrM, 1e-9)
		var rho float64
		if ratio < 0.03125 {
			rho = 1 - ratio*(1-ratio*(0.5-ratio*(1.0/6-ratio*(1.0/24))))
		} else {
			rho = math.Exp(-ratio)
		}
		q := math.Sqrt(1-rho*rho) * b.sigmaDB
		for k := range shadow {
			shadow[k] = rho*shadow[k] + q*src[k].StdNormalFast()
		}
	} else {
		// Paused and initialised: rho = 1 leaves the state unchanged, so
		// unlike the exact path there is nothing to draw and the caller can
		// reuse every downstream quantity.
		return
	}

	mathx.GainRowFast(gain, shadow, dist, pl.ReferenceDB, halfExp, invRefM2, minD2)
}
