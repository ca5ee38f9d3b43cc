package rng

// Jakes is a sum-of-sinusoids Rayleigh fading process generator following the
// classic Jakes/Clarke model. It produces a temporally correlated complex
// channel gain whose envelope is Rayleigh distributed and whose Doppler
// spectrum has maximum frequency fd (Hz).
//
// The fast fading component X_f(t) of the paper's combined channel
// X(t) = X_l(t) * X_f(t) is generated from a Jakes process; the power gain
// returned by PowerAt has unit mean so it can multiply the long-term
// (path loss x shadowing) gain directly. A Jakes is a one-user JakesBatch.
type Jakes struct {
	b JakesBatch
}

// NewJakes creates a Jakes fading generator with n oscillators per
// component (n >= 8 gives good Rayleigh statistics; n < 1 is promoted to
// 8), maximum Doppler frequency fd in Hz, and random parameters drawn from
// src as JakesBatch.SeedUser draws them.
func NewJakes(src *Source, n int, fd float64) *Jakes {
	j := &Jakes{b: *NewJakesBatch(1, n, fd)}
	j.b.SeedUser(0, src)
	return j
}

// PowerAt returns the instantaneous power gain |h(t)|^2 with unit mean.
func (j *Jakes) PowerAt(t float64) float64 {
	return j.b.PowerAt(0, t)
}
