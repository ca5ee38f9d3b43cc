package rng

import (
	"math"

	"jabasd/internal/mathx"
)

// JakesBatch generates sum-of-sinusoids Rayleigh fading following the
// classic Jakes/Clarke model, for many users at once: each user's complex
// channel gain is temporally correlated, its envelope Rayleigh distributed
// and its Doppler spectrum limited to fd Hz. This is the fast fading
// component X_f(t) of the paper's combined channel X(t) = X_l(t) * X_f(t);
// PowerAt has unit mean so it multiplies the long-term (path loss x
// shadowing) gain directly.
//
// The oscillators of all users live in contiguous slices instead of one
// heap object per user, so the frame loop walks flat memory. User u's n
// in-phase oscillators and then its n quadrature ones occupy
// [2u·n, 2(u+1)·n) of both slices.
//
// Every cosine, the arrival angles' at seeding and the oscillators' at each
// GainAt, goes through mathx.CosAffine. On amd64 CPUs with AVX2 it
// evaluates four lanes per block in assembly with the exact operations of
// Go's math.Cos, and leaves any block with a non-finite argument or one of
// magnitude 2^29 or more (math.Cos's Payne-Hanek range) to math.Cos, so
// the gains are bit-identical to a math.Cos loop on every CPU.
type JakesBatch struct {
	n   int // oscillators per user and component
	fd  float64
	w   []float64 // angular Doppler shifts 2π·fd·cos(arrival angle), rad/s
	phi []float64 // initial phases, rad
}

// NewJakesBatch allocates the batch for the given number of users, each with
// n oscillators per component (n < 1 is promoted to 8) and maximum Doppler
// frequency fd in Hz. Every user must be seeded with SeedUser before
// evaluation.
func NewJakesBatch(users, n int, fd float64) *JakesBatch {
	if n < 1 {
		n = 8
	}
	return &JakesBatch{
		n:   n,
		fd:  fd,
		w:   make([]float64, 2*users*n),
		phi: make([]float64, 2*users*n),
	}
}

// user returns user u's oscillator banks, in-phase then quadrature.
func (b *JakesBatch) user(u int) (w, phi []float64) {
	lo, hi := 2*u*b.n, 2*(u+1)*b.n
	return b.w[lo:hi], b.phi[lo:hi]
}

// SeedUser draws user u's oscillator parameters from src: for each
// oscillator i the in-phase and quadrature arrival angles, then the
// in-phase and quadrature phases, all uniform on [0, 2π).
func (b *JakesBatch) SeedUser(u int, src *Source) {
	n := b.n
	w, phi := b.user(u)
	for i := 0; i < n; i++ {
		w[i] = src.Uniform(0, 2*math.Pi)
		w[n+i] = src.Uniform(0, 2*math.Pi)
		phi[i] = src.Uniform(0, 2*math.Pi)
		phi[n+i] = src.Uniform(0, 2*math.Pi)
	}
	// x*0 + x is x for every finite x, so this sets w[k] = math.Cos(w[k]).
	mathx.CosAffine(w, w, w, 0)
	for k := range w {
		w[k] *= 2 * math.Pi * b.fd
	}
}

// GainAt returns user u's complex channel gain (in-phase, quadrature) at
// time t seconds. Each component is approximately Gaussian with variance
// 1/2, so the mean power is one.
func (b *JakesBatch) GainAt(u int, t float64) (i, q float64) {
	w, phi := b.user(u)
	norm := math.Sqrt(1 / float64(b.n))
	i = cosSum(w[:b.n], phi[:b.n], t)
	q = cosSum(w[b.n:], phi[b.n:], t)
	return i * norm, q * norm
}

// cosSum returns the sum of cos(w[k]*t + phi[k]) over k in index order.
func cosSum(w, phi []float64, t float64) (s float64) {
	var c [32]float64
	for len(w) > 0 {
		m := min(len(w), len(c))
		mathx.CosAffine(c[:m], w[:m], phi[:m], t)
		for _, v := range c[:m] {
			s += v
		}
		w, phi = w[m:], phi[m:]
	}
	return s
}

// PowerAt returns user u's instantaneous power gain |h(t)|^2 with unit mean.
func (b *JakesBatch) PowerAt(u int, t float64) float64 {
	i, q := b.GainAt(u, t)
	return i*i + q*q
}
