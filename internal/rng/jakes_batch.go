package rng

import "math"

// JakesBatch is the structure-of-arrays form of Jakes: the oscillator phases
// and Doppler shifts of many users live in contiguous slices instead of one
// heap object per user, so the frame loop walks flat memory. Constructed
// with SeedUser from the same substream a per-user NewJakes would receive,
// the batch draws the oscillator parameters in the identical order and
// evaluates GainAt with the identical summation order, so its output is
// bit-for-bit the same as the scalar generator's.
type JakesBatch struct {
	users int
	n     int // oscillators per user
	fd    float64
	// Flattened users x n oscillator state; user u owns [u*n, (u+1)*n).
	phases    []float64
	dopplers  []float64
	phasesQ   []float64
	dopplersQ []float64
}

// NewJakesBatch allocates the batch for the given number of users, each with
// n oscillators (n < 1 is promoted to 8, matching NewJakes) and maximum
// Doppler frequency fd in Hz. Every user must be seeded with SeedUser before
// evaluation.
func NewJakesBatch(users, n int, fd float64) *JakesBatch {
	if n < 1 {
		n = 8
	}
	return &JakesBatch{
		users:     users,
		n:         n,
		fd:        fd,
		phases:    make([]float64, users*n),
		dopplers:  make([]float64, users*n),
		phasesQ:   make([]float64, users*n),
		dopplersQ: make([]float64, users*n),
	}
}

// SeedUser draws user u's oscillator parameters from src in exactly the
// order NewJakes would, so a batch seeded from the same substreams
// reproduces the per-user generators bit for bit.
func (b *JakesBatch) SeedUser(u int, src *Source) {
	off := u * b.n
	for i := 0; i < b.n; i++ {
		alphaI := src.Uniform(0, 2*math.Pi)
		alphaQ := src.Uniform(0, 2*math.Pi)
		b.dopplers[off+i] = 2 * math.Pi * b.fd * math.Cos(alphaI)
		b.dopplersQ[off+i] = 2 * math.Pi * b.fd * math.Cos(alphaQ)
		b.phases[off+i] = src.Uniform(0, 2*math.Pi)
		b.phasesQ[off+i] = src.Uniform(0, 2*math.Pi)
	}
}

// GainAt returns user u's complex channel gain at time t seconds, summing
// the oscillators in the same order as Jakes.GainAt.
func (b *JakesBatch) GainAt(u int, t float64) (i, q float64) {
	off := u * b.n
	norm := math.Sqrt(1 / float64(b.n))
	for k := 0; k < b.n; k++ {
		i += math.Cos(b.dopplers[off+k]*t + b.phases[off+k])
		q += math.Cos(b.dopplersQ[off+k]*t + b.phasesQ[off+k])
	}
	return i * norm, q * norm
}

// PowerAt returns user u's instantaneous power gain |h(t)|^2 with unit mean.
func (b *JakesBatch) PowerAt(u int, t float64) float64 {
	i, q := b.GainAt(u, t)
	return i*i + q*q
}
