// Package channel models the wireless link of the paper's Section 2.1:
// the combined channel gain X(t) = X_l(t) * X_f(t), where X_l is the
// long-term component (distance path loss multiplied by correlated lognormal
// shadowing, coherence on the order of seconds) and X_f is the fast Rayleigh
// fading component (coherence on the order of milliseconds). Link is the
// scalar model of one link, the reference the batched kernels are tested
// against; Batch holds the long-term processes of every (user, cell) pair
// of a run, and Window those of each user's candidate cells only.
package channel

import (
	"math"

	"jabasd/internal/rng"
)

// PathLossModel is a log-distance path loss model:
//
//	PL(d) [dB] = PL(d0) + 10*n*log10(d/d0)
//
// with exponent n and reference loss at distance d0 (metres).
type PathLossModel struct {
	Exponent    float64 // path loss exponent (3.5 - 4 for macro cells)
	ReferenceDB float64 // loss at the reference distance, in dB
	ReferenceM  float64 // reference distance in metres
	MinDistance float64 // distances below this are clamped (antenna near field)
}

// DefaultPathLoss returns the macro-cell model used throughout the
// experiments: exponent 3.7, 128 dB at 1 km (COST-231-like), 10 m minimum.
func DefaultPathLoss() PathLossModel {
	return PathLossModel{Exponent: 3.7, ReferenceDB: 128.1, ReferenceM: 1000, MinDistance: 10}
}

// LossDB returns the path loss in dB at distance d metres.
func (p PathLossModel) LossDB(d float64) float64 {
	if d < p.MinDistance {
		d = p.MinDistance
	}
	return p.ReferenceDB + 10*p.Exponent*math.Log10(d/p.ReferenceM)
}

// Shadowing is a temporally correlated lognormal shadowing process following
// the Gudmundson model: the dB value is a first-order autoregressive Gaussian
// process with standard deviation SigmaDB and decorrelation distance
// DecorrelationM. Correlation is driven by the distance travelled by the
// mobile, so the process naturally slows down for slow users.
type Shadowing struct {
	SigmaDB        float64
	DecorrelationM float64
	currentDB      float64
	src            *rng.Source
	initialised    bool
}

// NewShadowing creates a shadowing process with its own random substream.
func NewShadowing(src *rng.Source, sigmaDB, decorrelationM float64) *Shadowing {
	return &Shadowing{SigmaDB: sigmaDB, DecorrelationM: decorrelationM, src: src}
}

// Advance moves the process by the given travelled distance (metres) and
// returns the new shadowing value in dB.
func (s *Shadowing) Advance(distanceM float64) float64 {
	if !s.initialised {
		s.currentDB = s.src.Normal(0, s.SigmaDB)
		s.initialised = true
		return s.currentDB
	}
	if distanceM < 0 {
		distanceM = 0
	}
	rho := math.Exp(-distanceM / math.Max(s.DecorrelationM, 1e-9))
	s.currentDB = rho*s.currentDB + math.Sqrt(1-rho*rho)*s.src.Normal(0, s.SigmaDB)
	return s.currentDB
}

// CurrentDB returns the current shadowing value in dB (0 until first Advance).
func (s *Shadowing) CurrentDB() float64 { return s.currentDB }

// Link models one mobile-to-base-station radio link: path loss, shadowing and
// fast fading.
type Link struct {
	PathLoss PathLossModel
	Shadow   *Shadowing
	Fast     *rng.JakesBatch // one user

	distance   float64 // current distance in metres
	lastLongDB float64 // cached long-term gain (path loss + shadowing) in dB
}

// LinkConfig collects the parameters needed to build a Link.
type LinkConfig struct {
	PathLoss      PathLossModel
	ShadowSigmaDB float64
	ShadowDecorrM float64
	DopplerHz     float64
	Oscillators   int
}

// DefaultLinkConfig returns parameters representative of a vehicular
// wideband-CDMA user: 8 dB shadowing with 50 m decorrelation and Doppler
// from ~30 km/h at 2 GHz (≈ 55 Hz).
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		PathLoss:      DefaultPathLoss(),
		ShadowSigmaDB: 8,
		ShadowDecorrM: 50,
		DopplerHz:     55,
		Oscillators:   16,
	}
}

// NewLink builds a link with independent random substreams derived from src.
func NewLink(src *rng.Source, cfg LinkConfig) *Link {
	shadowSrc := src.Split(1)
	fadeSrc := src.Split(2)
	l := &Link{
		PathLoss: cfg.PathLoss,
		Shadow:   NewShadowing(shadowSrc, cfg.ShadowSigmaDB, cfg.ShadowDecorrM),
		Fast:     rng.NewJakesBatch(1, cfg.Oscillators, cfg.DopplerHz),
	}
	l.Fast.SeedUser(0, fadeSrc)
	return l
}

// Update advances the link: the mobile is now at distance d metres from the
// base station, having moved `travelled` metres since the last update.
func (l *Link) Update(d, travelled float64) {
	l.distance = d
	l.Shadow.Advance(travelled)
	l.lastLongDB = -l.PathLoss.LossDB(d) + l.Shadow.CurrentDB()
}

// LongTermGainDB returns the slow component of the channel gain in dB
// (negative path loss plus shadowing). This is the "local mean CSI" that
// drives the offered SCH bit rate in the paper.
func (l *Link) LongTermGainDB() float64 { return l.lastLongDB }

// FastGain returns the instantaneous Rayleigh power gain (unit mean) at
// simulation time t seconds.
func (l *Link) FastGain(t float64) float64 { return l.Fast.PowerAt(0, t) }
