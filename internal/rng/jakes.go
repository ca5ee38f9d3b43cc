package rng

import "math"

// Jakes is a sum-of-sinusoids Rayleigh fading process generator following the
// classic Jakes/Clarke model. It produces a temporally correlated complex
// channel gain whose envelope is Rayleigh distributed and whose Doppler
// spectrum has maximum frequency fd (Hz).
//
// The fast fading component X_f(t) of the paper's combined channel
// X(t) = X_l(t) * X_f(t) is generated from a Jakes process; the power gain
// returned by PowerAt has unit mean so it can multiply the long-term
// (path loss x shadowing) gain directly.
type Jakes struct {
	phases    []float64
	dopplers  []float64
	phasesQ   []float64
	dopplersQ []float64
}

// NewJakes creates a Jakes fading generator with n oscillators (n >= 8 gives
// good Rayleigh statistics), maximum Doppler frequency fd in Hz, and random
// initial phases drawn from src.
func NewJakes(src *Source, n int, fd float64) *Jakes {
	if n < 1 {
		n = 8
	}
	j := &Jakes{
		phases:    make([]float64, n),
		dopplers:  make([]float64, n),
		phasesQ:   make([]float64, n),
		dopplersQ: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		// Random arrival angles give independent Doppler shifts in [-fd, fd].
		alphaI := src.Uniform(0, 2*math.Pi)
		alphaQ := src.Uniform(0, 2*math.Pi)
		j.dopplers[i] = 2 * math.Pi * fd * math.Cos(alphaI)
		j.dopplersQ[i] = 2 * math.Pi * fd * math.Cos(alphaQ)
		j.phases[i] = src.Uniform(0, 2*math.Pi)
		j.phasesQ[i] = src.Uniform(0, 2*math.Pi)
	}
	return j
}

// GainAt returns the complex channel gain (in-phase, quadrature) at time t
// seconds. Each component is approximately Gaussian with variance 1/2 so the
// mean power is one.
func (j *Jakes) GainAt(t float64) (i, q float64) {
	n := len(j.phases)
	norm := math.Sqrt(1 / float64(n))
	for k := 0; k < n; k++ {
		i += math.Cos(j.dopplers[k]*t + j.phases[k])
		q += math.Cos(j.dopplersQ[k]*t + j.phasesQ[k])
	}
	return i * norm, q * norm
}

// PowerAt returns the instantaneous power gain |h(t)|^2 with unit mean.
func (j *Jakes) PowerAt(t float64) float64 {
	i, q := j.GainAt(t)
	return i*i + q*q
}
