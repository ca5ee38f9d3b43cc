// Package vtaoc implements the paper's adaptive physical layer (Section 2.2):
// a 6-mode Variable Throughput Adaptive Orthogonal Coding and modulation
// scheme (VTAOC) operated in constant-BER mode. The transmitter selects
// transmission mode q whenever the fed-back channel state information (CSI)
// falls inside the adaptation thresholds (ξ_{q-1}, ξ_q); higher modes carry
// more information bits per orthogonal symbol at the cost of a higher
// required symbol energy-to-interference ratio.
//
// The exact per-mode BER curves of the original VTAOC papers ([3],[7] in the
// paper) are not reproducible from the workshop text; we use the standard
// orthogonal-signalling exponential BER approximation
//
//	BER_q(γ) ≈ 0.5 * exp(-γ / (2 * 2^(q-1)))
//
// which preserves the two properties the admission layer relies on: the BER
// is monotone decreasing in the symbol SNR γ and higher-throughput modes need
// proportionally (≈3 dB per mode) more SNR to hold a target BER. The
// adaptation thresholds for constant-BER operation follow by inverting this
// expression, exactly as the paper's "thresholds are set optimally to
// maintain a target transmission error level" prescription.
package vtaoc

import (
	"errors"
	"fmt"
	"math"

	"jabasd/internal/mathx"
)

// Mode describes one VTAOC transmission mode.
type Mode struct {
	Index      int     // 1-based mode number (mode 0 means "no transmission")
	Throughput float64 // information bits per orthogonal modulation symbol
	MinCSIDB   float64 // adaptation threshold ξ_{q-1}: minimum CSI for this mode
}

// Config parameterises the adaptive coder.
type Config struct {
	NumModes  int     // number of transmission modes (paper: 6)
	TargetBER float64 // constant-BER operating point (e.g. 1e-3)
	// BaseThroughput is the throughput of mode 1 in bits/symbol; mode q has
	// BaseThroughput * 2^(q-1). With the default 1/32, the 6 modes span
	// 1/32 ... 1 bits per symbol, the "1/2^5 ... 1/2^0" ladder of the paper.
	BaseThroughput float64
}

// DefaultConfig returns the 6-mode, BER 1e-3 configuration used by the
// experiments.
func DefaultConfig() Config {
	return Config{NumModes: 6, TargetBER: 1e-3, BaseThroughput: 1.0 / 32.0}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumModes < 1 {
		return errors.New("vtaoc: NumModes must be >= 1")
	}
	if c.TargetBER <= 0 || c.TargetBER >= 0.5 {
		return errors.New("vtaoc: TargetBER must be in (0, 0.5)")
	}
	if c.BaseThroughput <= 0 {
		return errors.New("vtaoc: BaseThroughput must be positive")
	}
	return nil
}

// Coder is an adaptive coder with precomputed constant-BER thresholds.
// A Coder is immutable after construction and safe for concurrent use;
// the only exception is the opt-in Tabulate, which must complete before the
// coder is shared across goroutines.
type Coder struct {
	cfg   Config
	modes []Mode    // modes[q-1] is mode q
	table []float64 // optional AverageThroughput samples on the Table* grid
}

// New builds a Coder for the configuration, computing the adaptation
// thresholds that hold the target BER for every mode.
func New(cfg Config) (*Coder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Coder{cfg: cfg, modes: make([]Mode, cfg.NumModes)}
	for q := 1; q <= cfg.NumModes; q++ {
		c.modes[q-1] = Mode{
			Index:      q,
			Throughput: cfg.BaseThroughput * math.Pow(2, float64(q-1)),
			MinCSIDB:   mathx.DB(requiredSNR(q, cfg.TargetBER)),
		}
	}
	return c, nil
}

// MustNew is New but panics on configuration errors; convenient in examples
// and tests with known-good configurations.
func MustNew(cfg Config) *Coder {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// requiredSNR returns the linear symbol SNR at which mode q meets the target
// BER under the exponential BER approximation.
func requiredSNR(q int, targetBER float64) float64 {
	return -2 * math.Pow(2, float64(q-1)) * math.Log(2*targetBER)
}

// BER returns the bit error rate of mode q at linear symbol SNR gamma.
func BER(q int, gamma float64) float64 {
	if gamma <= 0 {
		return 0.5
	}
	return 0.5 * math.Exp(-gamma/(2*math.Pow(2, float64(q-1))))
}

// Modes returns a copy of the mode table (ascending thresholds).
func (c *Coder) Modes() []Mode {
	return append([]Mode(nil), c.modes...)
}

// NumModes returns the number of transmission modes.
func (c *Coder) NumModes() int { return len(c.modes) }

// Thresholds returns the adaptation thresholds {ξ_0, ξ_1, ..., ξ_{Q-1}} in dB:
// CSI below ξ_0 means no transmission, CSI in [ξ_{q-1}, ξ_q) selects mode q.
func (c *Coder) Thresholds() []float64 {
	out := make([]float64, len(c.modes))
	for i, m := range c.modes {
		out[i] = m.MinCSIDB
	}
	return out
}

// SelectMode returns the transmission mode index chosen for the given CSI
// (symbol energy-to-interference ratio) in dB. It returns 0 when the channel
// is too poor for even the most protected mode (transmission suspended).
func (c *Coder) SelectMode(csiDB float64) int {
	mode := 0
	for _, m := range c.modes {
		if csiDB >= m.MinCSIDB {
			mode = m.Index
		} else {
			break
		}
	}
	return mode
}

// Throughput returns the instantaneous throughput (information bits per
// modulation symbol) offered at the given CSI. Zero when no mode is usable.
func (c *Coder) Throughput(csiDB float64) float64 {
	q := c.SelectMode(csiDB)
	if q == 0 {
		return 0
	}
	return c.modes[q-1].Throughput
}

// ModeThroughput returns the throughput of mode q (1-based); 0 for q == 0.
func (c *Coder) ModeThroughput(q int) float64 {
	if q <= 0 || q > len(c.modes) {
		return 0
	}
	return c.modes[q-1].Throughput
}

// The opt-in AverageThroughput lookup table (Tabulate) samples the exact
// Rayleigh average on this fixed CSI grid; queries inside the grid are
// answered by linear interpolation between neighbouring samples, queries
// outside fall back to the exact computation. The 1/64 dB resolution keeps
// the interpolation error below 5e-7 bits/symbol on the default 6-mode
// ladder (pinned by TestTabulateAccuracy) while the whole table stays under
// 33 KiB.
const (
	// TableMinCSIDB is the lowest mean CSI covered by the lookup table.
	TableMinCSIDB = -20.0
	// TableMaxCSIDB is the highest mean CSI covered by the lookup table.
	TableMaxCSIDB = 45.0
	// TableStepDB is the grid resolution of the lookup table.
	TableStepDB = 0.015625
)

// AverageThroughput returns the expected throughput E[bp] when the short-term
// average symbol SNR is meanCSIDB and the instantaneous SNR is exponentially
// distributed around it (Rayleigh fading), i.e. the quantity the paper calls
// the "relative average throughput" as a function of the local mean CSI ε_s.
//
// By default the value is computed exactly (a handful of exponentials per
// mode). After an opt-in Tabulate call, in-grid queries are served from the
// lookup table by linear interpolation instead; interpolated values differ
// from the exact ones in the low-order bits, which is why tabulation is
// opt-in — the golden-gated simulation paths stay on the exact computation.
func (c *Coder) AverageThroughput(meanCSIDB float64) float64 {
	if c.table != nil && meanCSIDB >= TableMinCSIDB && meanCSIDB <= TableMaxCSIDB {
		pos := (meanCSIDB - TableMinCSIDB) / TableStepDB
		i := int(pos)
		if i >= len(c.table)-1 {
			return c.table[len(c.table)-1]
		}
		return c.table[i] + (pos-float64(i))*(c.table[i+1]-c.table[i])
	}
	return c.averageThroughputExact(meanCSIDB)
}

// averageThroughputExact evaluates the Rayleigh-averaged throughput from the
// mode ladder directly.
func (c *Coder) averageThroughputExact(meanCSIDB float64) float64 {
	gammaBar := mathx.Linear(meanCSIDB)
	if gammaBar <= 0 {
		return 0
	}
	total := 0.0
	for i, m := range c.modes {
		lo := mathx.Linear(m.MinCSIDB)
		var hi float64
		if i+1 < len(c.modes) {
			hi = mathx.Linear(c.modes[i+1].MinCSIDB)
		} else {
			hi = math.Inf(1)
		}
		// P(mode q) = P(lo <= gamma < hi) with gamma ~ Exp(mean = gammaBar).
		p := math.Exp(-lo/gammaBar) - math.Exp(-hi/gammaBar)
		total += p * m.Throughput
	}
	return total
}

// Tabulate precomputes the AverageThroughput lookup table on the documented
// [TableMinCSIDB, TableMaxCSIDB] grid at TableStepDB resolution. Subsequent
// in-grid AverageThroughput queries interpolate linearly between the samples
// (two orders of magnitude faster than the exact path — see
// BenchmarkVTAOCAverageThroughputTabulated); out-of-grid queries keep the
// exact computation. Tabulation is idempotent and must complete before the
// coder is shared across goroutines.
func (c *Coder) Tabulate() {
	if c.table != nil {
		return
	}
	steps := int(math.Round((TableMaxCSIDB-TableMinCSIDB)/TableStepDB)) + 1
	table := make([]float64, steps)
	for i := range table {
		table[i] = c.averageThroughputExact(TableMinCSIDB + float64(i)*TableStepDB)
	}
	c.table = table
}

// OutageProbability returns the probability that no mode can be used
// (transmission suspended) when the mean symbol SNR is meanCSIDB under
// Rayleigh fading.
func (c *Coder) OutageProbability(meanCSIDB float64) float64 {
	gammaBar := mathx.Linear(meanCSIDB)
	if gammaBar <= 0 {
		return 1
	}
	lo := mathx.Linear(c.modes[0].MinCSIDB)
	return 1 - math.Exp(-lo/gammaBar)
}

// ModeDistribution returns the probability of each mode (index 0 =
// suspended, index q = mode q) under Rayleigh fading with the given mean CSI.
func (c *Coder) ModeDistribution(meanCSIDB float64) []float64 {
	out := make([]float64, len(c.modes)+1)
	gammaBar := mathx.Linear(meanCSIDB)
	if gammaBar <= 0 {
		out[0] = 1
		return out
	}
	out[0] = c.OutageProbability(meanCSIDB)
	for i := range c.modes {
		lo := mathx.Linear(c.modes[i].MinCSIDB)
		hi := math.Inf(1)
		if i+1 < len(c.modes) {
			hi = mathx.Linear(c.modes[i+1].MinCSIDB)
		}
		out[i+1] = math.Exp(-lo/gammaBar) - math.Exp(-hi/gammaBar)
	}
	return out
}

// FixedRate is the non-adaptive baseline physical layer used for the joint
// design ablation (experiment E8): it always uses a single mode q and offers
// its throughput only while the CSI is above that mode's constant-BER
// threshold (otherwise the frame is in outage).
type FixedRate struct {
	ModeIndex  int
	throughput float64
	minCSIDB   float64
}

// NewFixedRate builds a fixed-rate layer equivalent to mode q of the coder.
func NewFixedRate(c *Coder, q int) (*FixedRate, error) {
	if q < 1 || q > c.NumModes() {
		return nil, fmt.Errorf("vtaoc: fixed-rate mode %d out of range 1..%d", q, c.NumModes())
	}
	m := c.modes[q-1]
	return &FixedRate{ModeIndex: q, throughput: m.Throughput, minCSIDB: m.MinCSIDB}, nil
}

// Throughput returns the offered throughput at the given CSI (0 in outage).
func (f *FixedRate) Throughput(csiDB float64) float64 {
	if csiDB < f.minCSIDB {
		return 0
	}
	return f.throughput
}

// AverageThroughput returns the Rayleigh-averaged throughput of the fixed
// mode at the given mean CSI.
func (f *FixedRate) AverageThroughput(meanCSIDB float64) float64 {
	gammaBar := mathx.Linear(meanCSIDB)
	if gammaBar <= 0 {
		return 0
	}
	p := math.Exp(-mathx.Linear(f.minCSIDB) / gammaBar)
	return p * f.throughput
}
