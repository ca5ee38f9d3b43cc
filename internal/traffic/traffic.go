// Package traffic generates the offered load for the dynamic simulation:
// voice users with an on/off activity model (the background load whose
// statistical multiplexing CDMA handles natively) and packet data users that
// alternate between reading ("think") periods and heavy-tailed document
// downloads, the WWW browsing model used by the cdma2000 burst admission
// literature. Each data download becomes one burst request with a size Q_j
// (bits) handed to the burst admission layer.
package traffic

import "jabasd/internal/rng"

// VoiceModel is a two-state (talk spurt / silence) Markov on/off source.
type VoiceModel struct {
	src           *rng.Source
	activityOn    bool
	timeLeft      float64
	meanOnSec     float64
	meanOffSec    float64
	activityRatio float64
}

// NewVoiceModel creates a voice source with exponential talk spurts of mean
// meanOn seconds and silences of mean meanOff seconds (classic values: 1.0 s
// on, 1.35 s off, activity factor ≈ 0.42).
func NewVoiceModel(src *rng.Source, meanOn, meanOff float64) *VoiceModel {
	if meanOn <= 0 {
		meanOn = 1.0
	}
	if meanOff <= 0 {
		meanOff = 1.35
	}
	v := &VoiceModel{
		src:           src,
		meanOnSec:     meanOn,
		meanOffSec:    meanOff,
		activityRatio: meanOn / (meanOn + meanOff),
	}
	// Start in a random state according to the stationary distribution.
	v.activityOn = src.Bernoulli(v.activityRatio)
	v.scheduleNext()
	return v
}

func (v *VoiceModel) scheduleNext() {
	if v.activityOn {
		v.timeLeft = v.src.Exponential(v.meanOnSec)
	} else {
		v.timeLeft = v.src.Exponential(v.meanOffSec)
	}
}

// Active reports whether the source is currently in a talk spurt.
func (v *VoiceModel) Active() bool { return v.activityOn }

// Advance moves the source forward by dt seconds and returns whether the
// source is active at the end of the interval.
func (v *VoiceModel) Advance(dt float64) bool {
	for dt > 0 {
		if v.timeLeft > dt {
			v.timeLeft -= dt
			break
		}
		dt -= v.timeLeft
		v.activityOn = !v.activityOn
		v.scheduleNext()
	}
	return v.activityOn
}

// BurstRequest is one packet-data download that needs a supplemental channel
// burst assignment.
type BurstRequest struct {
	UserID      int
	SizeBits    float64 // Q_j
	ArrivalTime float64 // simulation time the request was issued
	Priority    float64 // Δ_j, the traffic-type priority in the objectives
}

// DataModelConfig parameterises the WWW browsing data source.
type DataModelConfig struct {
	MeanReadingTimeSec float64 // exponential think time between downloads
	ParetoAlpha        float64 // shape of the document size distribution
	MinSizeBits        float64 // minimum document size (Pareto x_m)
	MaxSizeBits        float64 // truncation cap
	Priority           float64 // Δ_j carried on every request from this user
}

// DefaultDataModelConfig returns a browsing profile with 12 s mean reading
// time and Pareto(1.2) documents from 16 kbit to 4 Mbit (mean ≈ 80 kbit).
func DefaultDataModelConfig() DataModelConfig {
	return DataModelConfig{
		MeanReadingTimeSec: 12,
		ParetoAlpha:        1.2,
		MinSizeBits:        16_000,
		MaxSizeBits:        4_000_000,
		Priority:           0,
	}
}

// DataModel is a packet data user: it thinks, then issues a burst request,
// and thinks again once the burst has been served (the caller signals
// completion with BurstDone).
type DataModel struct {
	cfg       DataModelConfig
	src       *rng.Source
	userID    int
	thinking  bool
	thinkLeft float64
	pending   *BurstRequest // issued but not yet completed
}

// NewDataModel creates a data source for the given user.
func NewDataModel(src *rng.Source, userID int, cfg DataModelConfig) *DataModel {
	if cfg.MeanReadingTimeSec <= 0 {
		cfg.MeanReadingTimeSec = DefaultDataModelConfig().MeanReadingTimeSec
	}
	if cfg.ParetoAlpha <= 0 {
		cfg.ParetoAlpha = DefaultDataModelConfig().ParetoAlpha
	}
	if cfg.MinSizeBits <= 0 {
		cfg.MinSizeBits = DefaultDataModelConfig().MinSizeBits
	}
	if cfg.MaxSizeBits < cfg.MinSizeBits {
		cfg.MaxSizeBits = cfg.MinSizeBits
	}
	d := &DataModel{cfg: cfg, src: src, userID: userID, thinking: true}
	d.thinkLeft = src.Exponential(cfg.MeanReadingTimeSec)
	return d
}

// Pending returns the outstanding burst request, or nil.
func (d *DataModel) Pending() *BurstRequest { return d.pending }

// Advance moves the source forward by dt seconds ending at absolute time
// now. If a new burst request is issued during the interval it is returned,
// otherwise nil. While a request is pending (being served or queued) the
// source stays idle.
func (d *DataModel) Advance(dt float64, now float64) *BurstRequest {
	if d.pending != nil {
		return nil
	}
	if !d.thinking {
		return nil
	}
	if d.thinkLeft > dt {
		d.thinkLeft -= dt
		return nil
	}
	// Think time expired during the interval: issue a download.
	d.thinking = false
	size := d.src.BoundedPareto(d.cfg.ParetoAlpha, d.cfg.MinSizeBits, d.cfg.MaxSizeBits)
	req := &BurstRequest{
		UserID:      d.userID,
		SizeBits:    size,
		ArrivalTime: now,
		Priority:    d.cfg.Priority,
	}
	d.pending = req
	return req
}

// SetMeanReadingTime changes the mean reading (think) time used for every
// future reading period — a mid-run offered-load step (fault.LoadEvent). If
// the source is currently reading, the remaining think time is rescaled
// proportionally so the step changes the offered load immediately instead
// of one full think-time later; because the exponential distribution is
// closed under scaling, the rescaled remainder is statistically exactly a
// fresh draw at the new mean. Non-positive values are ignored.
func (d *DataModel) SetMeanReadingTime(sec float64) {
	if sec <= 0 || sec == d.cfg.MeanReadingTimeSec {
		return
	}
	if d.thinking && d.cfg.MeanReadingTimeSec > 0 {
		d.thinkLeft *= sec / d.cfg.MeanReadingTimeSec
	}
	d.cfg.MeanReadingTimeSec = sec
}

// BurstDone tells the source its outstanding request has been fully served;
// it returns to the reading state.
func (d *DataModel) BurstDone() {
	d.pending = nil
	d.thinking = true
	d.thinkLeft = d.src.Exponential(d.cfg.MeanReadingTimeSec)
}
