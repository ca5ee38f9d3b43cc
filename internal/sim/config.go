// Package sim is the dynamic system-level simulator used to evaluate the
// burst admission algorithms, following the methodology the paper describes:
// a multi-cell wideband CDMA network with user mobility, per-frame power
// control effects, soft hand-off (reduced active set), lognormal shadowing,
// Rayleigh fast fading, an adaptive (VTAOC) physical layer and a burst
// admission layer run every frame. Replicate runs independent replications
// of one or more configurations in parallel across goroutines.
package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"jabasd/internal/channel"
	"jabasd/internal/core"
	"jabasd/internal/fault"
	"jabasd/internal/mac"
	"jabasd/internal/trace"
	"jabasd/internal/traffic"
	"jabasd/internal/vtaoc"
)

// Direction selects which link the burst traffic uses.
type Direction int

const (
	// Forward simulates forward-link (base-to-mobile) data bursts, limited by
	// the cells' transmit power budget.
	Forward Direction = iota
	// Reverse simulates reverse-link (mobile-to-base) data bursts, limited by
	// the cells' received interference budget.
	Reverse
)

// String names the direction.
func (d Direction) String() string {
	if d == Reverse {
		return "reverse"
	}
	return "forward"
}

// MarshalJSON encodes the direction by name ("forward"/"reverse") so
// configuration files and API payloads stay readable.
func (d Direction) MarshalJSON() ([]byte, error) {
	return []byte(`"` + d.String() + `"`), nil
}

// UnmarshalJSON accepts the names MarshalJSON writes and nothing else.
func (d *Direction) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"forward"`:
		*d = Forward
	case `"reverse"`:
		*d = Reverse
	default:
		return fmt.Errorf("sim: unknown direction %s (want \"forward\" or \"reverse\")", data)
	}
	return nil
}

// FrameMode selects how the per-frame burst admission fans out over cells.
type FrameMode string

const (
	// FrameSequential is the legacy mode: cells run their measurement and
	// scheduling sub-layers one after another in cell-index order, each cell
	// seeing the load the grants of lower-numbered cells added earlier in
	// the same frame. The empty string means FrameSequential.
	FrameSequential FrameMode = "sequential"
	// FrameSnapshot is the paper-faithful mode: every cell builds its
	// admissible region and solves its scheduler ILP against the immutable
	// frame-start load ledger (the previous frame's measurements), and the
	// resulting grants are committed in cell-index order afterwards. The
	// solve phase fans out over FrameParallel workers; because no cell's
	// solution depends on another cell's grant within the frame, the output
	// is byte-identical for any worker count.
	FrameSnapshot FrameMode = "snapshot"
)

// normalize maps the empty mode to FrameSequential.
func (m FrameMode) normalize() FrameMode {
	if m == "" {
		return FrameSequential
	}
	return m
}

// SchedulerKind selects the scheduling sub-layer algorithm.
type SchedulerKind string

// Available scheduler kinds.
const (
	SchedulerJABASD     SchedulerKind = "jaba-sd"
	SchedulerGreedy     SchedulerKind = "jaba-sd-greedy"
	SchedulerFCFS       SchedulerKind = "fcfs"
	SchedulerEqualShare SchedulerKind = "equal-share"
	SchedulerRandom     SchedulerKind = "random"
)

// NewScheduler instantiates the named scheduler.
func NewScheduler(kind SchedulerKind, seed uint64) (core.Scheduler, error) {
	switch kind {
	case SchedulerJABASD, "":
		return core.NewJABASD(), nil
	case SchedulerGreedy:
		return &core.GreedyJABASD{}, nil
	case SchedulerFCFS:
		return &core.FCFS{}, nil
	case SchedulerEqualShare:
		return &core.EqualShare{}, nil
	case SchedulerRandom:
		return core.NewRandom(seed), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheduler %q", kind)
	}
}

// Config holds every parameter of one simulation scenario.
type Config struct {
	// Randomness and duration.
	Seed        uint64
	SimTime     float64 // simulated seconds
	WarmupTime  float64 // statistics discarded before this time
	FrameLength float64 // admission frame, seconds (cdma2000: 20 ms)

	// Topology.
	Rings      int     // hexagonal rings around the centre cell (2 => 19 cells)
	CellRadius float64 // metres
	WrapAround bool

	// Population.
	DataUsersPerCell  int
	VoiceUsersPerCell int

	// Mobility.
	MinSpeed float64 // m/s
	MaxSpeed float64 // m/s

	// Radio / channel.
	PathLoss           channel.PathLossModel
	ShadowSigmaDB      float64
	ShadowDecorrM      float64
	DopplerHz          float64
	NoiseW             float64 // thermal noise power at a receiver, watts
	MaxCellPowerW      float64 // P_max, forward-link power budget per cell
	CommonOverheadFrac float64 // fraction of P_max always spent on pilot/common channels
	VoiceChannelW      float64 // forward power of one active voice channel at cell edge reference
	FCHTargetFraction  float64 // cap on one user's FCH power as a fraction of P_max
	FCHEbIoTargetDB    float64 // forward FCH Eb/Io target
	ReverseRiseLimit   float64 // L_max / thermal-noise (rise over thermal) cap, linear
	SoftHandoffAddDB   float64 // active set add threshold
	PilotMinEcIoDB     float64 // minimum usable pilot
	PilotFraction      float64 // fraction of cell power on the pilot
	ShadowMargin       float64 // κ margin for projected neighbour interference

	// Physical layer.
	VTAOC           vtaoc.Config
	RatePlan        vtaoc.RatePlan
	UseFixedRatePHY bool // ablation: replace the adaptive coder with one fixed mode
	FixedRateMode   int

	// ExactPHY selects the bit-exact reference physics: the scalar-equivalent
	// channel/pilot kernels (math.Pow, dB-domain pilot comparisons) and the
	// exact VTAOC integral instead of its lookup table. It exists to keep
	// golden outputs byte-identical to the pre-batching engine; the default
	// (false) runs the fast SoA kernels — gains within ~1e-12 relative, VTAOC
	// within 5e-7 absolute, statistically equivalent shadowing draws — for a
	// several-fold frame-rate gain.
	ExactPHY bool

	// Traffic.
	Data traffic.DataModelConfig

	// Admission layer.
	Scheduler        SchedulerKind
	Objective        core.Objective
	MAC              mac.Config
	MinBurstDuration float64 // T_l of equation (24), seconds

	// FrameMode selects sequential (legacy, intra-frame coupled) or
	// snapshot (paper-faithful, intra-frame independent) admission; empty
	// means sequential.
	FrameMode FrameMode
	// FrameParallel sizes the frame worker pool: 1 runs every frame inline
	// (the nil inline pool runs the same tasks in order on the caller),
	// larger values size the pool, and 0 means auto: Replicate hands each
	// run its share of the parallel budget (FrameWorkers), so one run gets
	// all of it and runs that fill the budget run inline; an engine built
	// directly gets GOMAXPROCS. The pool seeds the users when the engine is
	// built; then, in both frame modes, it fans out the user, voice and
	// burst-rate updates; in snapshot mode it also runs the solves, one
	// task per cell with queued requests (sequential admission stays on
	// one worker). It never affects the results.
	FrameParallel int
	// PilotCells is the width of each user's measurement window: the
	// nearest PilotCells cells of its spatial-grid bucket (see
	// internal/spatial and windowed.go). Pilot sets, shadowing state and
	// interference sums cost O(window) instead of O(cells) per user per
	// frame, which is what makes 1000-cell maps tractable. 0 (the default)
	// makes the window every cell: the paper's full per-cell scan, with its
	// bit-exact goldens, at any map size. A value at or above the cell
	// count is the same run as 0. A narrower window is a (deterministic)
	// modelling approximation — cells outside it are treated as negligible
	// — so it changes results relative to 0. Nonzero values must be at
	// least 4 (the active set plus slack) and at most
	// channel.MaxWindowWidth; >= 19 (a two-ring neighbourhood) is
	// recommended.
	PilotCells int

	// Trace, when non-nil, receives per-frame per-cell telemetry records
	// (offered/admitted bursts, cell load, queue length, solve status,
	// burst-delay samples — see trace.Record). The engine wraps it in a
	// trace.Recorder and emits only from its sequential sections, so the
	// stream is byte-identical for any FrameParallel. Warm-up frames are
	// included: transient analysis is what the trace is for. The sink is
	// not part of the scenario (never serialised); Replicate attaches it
	// to replication 0 only, so a sink never sees interleaved engines.
	Trace trace.Sink `json:"-"`
	// TraceEvery samples every N-th frame into Trace (0 or 1 = every
	// frame). Counters reset each frame, so a sampled row is that frame's
	// activity, not an aggregate since the last sample.
	TraceEvery int

	// SolveTrace, when non-nil, receives the JSONL solve trace: every
	// (frame, cell) scheduling problem the admission layer solves —
	// requests, admissible region and assigned ratios — in commit order
	// (see internal/replay). The stream is byte-identical for any
	// FrameParallel. Never serialised; like Trace it is attached to
	// replication 0 only by Replicate.
	SolveTrace io.Writer `json:"-"`

	// CheckpointEvery, when positive with CheckpointSink set, serialises
	// the full engine state to the sink after every N-th frame (see
	// Engine.Checkpoint). Like the trace it is an execution knob, not part
	// of the scenario: a checkpointing run's outputs are byte-identical to
	// a plain one.
	CheckpointEvery int
	// CheckpointSink receives the periodic checkpoints: it is called with
	// the just-completed frame index and a callback that serialises the
	// engine into the writer it is given (see FileCheckpointSink for the
	// atomic-file implementation). A sink error aborts the run. Never
	// serialised.
	CheckpointSink func(frame int, write func(io.Writer) error) error `json:"-"`

	// Faults, when non-nil, injects the piecewise fault schedule (cell
	// outages, transmit-power derating, offered-load curves — see
	// internal/fault) into the run. Semantic: it changes results, is part
	// of the scenario a resume must match, and its effects stay byte-identical
	// for any FrameParallel. A nil or empty schedule leaves every
	// output bit-identical to a fault-free build.
	Faults *fault.Schedule
	// SolveNodeBudget, when positive, bounds each exact JABA-SD solve at
	// that many branch-and-bound nodes; a capped solve degrades to the
	// greedy schedule deterministically (counted in Metrics.FallbackSolves,
	// traced as "fallback"). Node counts are a pure function of the
	// problem, so this is the deterministic analogue of a per-frame solver
	// time budget. 0 means unbounded; other schedulers ignore it.
	SolveNodeBudget int

	// Coverage accounting: a completed burst counts as "covered" when its
	// average served rate meets this fraction of the FCH rate.
	CoverageRateFraction float64

	// Direction of the data bursts.
	Direction Direction
}

// DefaultConfig returns the baseline scenario used throughout the
// experiments: 19 wrap-around cells of 1 km radius, 10 data and 8 voice
// users per cell, vehicular mobility, JABA-SD with the delay-aware objective.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		SimTime:     60,
		WarmupTime:  5,
		FrameLength: 0.02,

		Rings:      2,
		CellRadius: 1000,
		WrapAround: true,

		DataUsersPerCell:  10,
		VoiceUsersPerCell: 8,

		MinSpeed: 1,
		MaxSpeed: 14, // ~3.6 .. 50 km/h

		PathLoss:           channel.DefaultPathLoss(),
		ShadowSigmaDB:      8,
		ShadowDecorrM:      50,
		DopplerHz:          55,
		NoiseW:             4e-15, // ≈ -114 dBm in 3.75 MHz
		MaxCellPowerW:      20,
		CommonOverheadFrac: 0.2,
		VoiceChannelW:      0.25,
		FCHTargetFraction:  0.05,
		FCHEbIoTargetDB:    7,
		ReverseRiseLimit:   10, // 10 dB rise over thermal
		SoftHandoffAddDB:   5,
		PilotMinEcIoDB:     -16,
		PilotFraction:      0.2,
		ShadowMargin:       1.5,

		VTAOC:         vtaoc.DefaultConfig(),
		RatePlan:      vtaoc.DefaultRatePlan(),
		FixedRateMode: 3,

		Data: traffic.DefaultDataModelConfig(),

		Scheduler:        SchedulerJABASD,
		Objective:        core.DefaultObjective(),
		MAC:              mac.DefaultConfig(),
		MinBurstDuration: 0.08,

		CoverageRateFraction: 1.0,
		Direction:            Forward,
	}
}

// Validate checks the configuration for inconsistencies. Every violation is
// reported, joined into one error (errors.Join), so a hand-written scenario
// file or API payload with several mistakes surfaces them all in one round
// trip instead of one per submission.
func (c Config) Validate() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("sim: "+format, args...))
	}
	if c.SimTime <= 0 || c.FrameLength <= 0 {
		fail("SimTime and FrameLength must be positive")
	}
	if c.WarmupTime < 0 || c.WarmupTime >= c.SimTime {
		fail("WarmupTime must be in [0, SimTime)")
	}
	if c.Rings < 0 || c.CellRadius <= 0 {
		fail("invalid topology")
	}
	if c.DataUsersPerCell < 0 || c.VoiceUsersPerCell < 0 {
		fail("negative user counts")
	}
	if c.MaxCellPowerW <= 0 || c.NoiseW <= 0 {
		fail("power budget and noise must be positive")
	}
	if c.CommonOverheadFrac < 0 || c.CommonOverheadFrac >= 1 {
		fail("CommonOverheadFrac must be in [0,1)")
	}
	if c.ReverseRiseLimit <= 1 {
		fail("ReverseRiseLimit must exceed 1")
	}
	if err := c.VTAOC.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.RatePlan.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.MAC.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.Objective.Validate(); err != nil {
		errs = append(errs, err)
	}
	if _, err := NewScheduler(c.Scheduler, c.Seed); err != nil {
		errs = append(errs, err)
	}
	if c.Direction != Forward && c.Direction != Reverse {
		fail("unknown direction %d (want %s or %s)", int(c.Direction), Forward, Reverse)
	}
	switch c.FrameMode.normalize() {
	case FrameSequential, FrameSnapshot:
	default:
		fail("unknown frame mode %q (want %q or %q)",
			c.FrameMode, FrameSequential, FrameSnapshot)
	}
	if c.FrameParallel < 0 {
		fail("FrameParallel must be >= 0")
	}
	if c.PilotCells != 0 && (c.PilotCells < 4 || c.PilotCells > channel.MaxWindowWidth) {
		fail("PilotCells must be 0 (every cell) or in [4, %d]", channel.MaxWindowWidth)
	}
	if c.TraceEvery < 0 {
		fail("TraceEvery must be >= 0")
	}
	if c.CheckpointEvery < 0 {
		fail("CheckpointEvery must be >= 0")
	}
	if c.SolveNodeBudget < 0 {
		fail("SolveNodeBudget must be >= 0")
	}
	if c.Faults != nil {
		cells := 1 + 3*c.Rings*(c.Rings+1)
		if err := c.Faults.Validate(cells, c.SimTime); err != nil {
			errs = append(errs, err)
		}
	}
	if c.UseFixedRatePHY && (c.FixedRateMode < 1 || c.FixedRateMode > c.VTAOC.NumModes) {
		fail("FixedRateMode out of range")
	}
	return errors.Join(errs...)
}

// UnmarshalJSON decodes a configuration strictly: a key that names no field,
// at the top level or in any nested object, is an error naming the key, so
// a misspelt or removed knob in a -config file, a job spec or a checkpoint
// is refused instead of silently ignored. It decodes on top of the
// receiver, so absent keys keep their pre-filled defaults.
func (c *Config) UnmarshalJSON(data []byte) error {
	type plain Config // drops this method, so the decode does not recurse
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode((*plain)(c)); err != nil {
		return fmt.Errorf("sim: config: %w", err)
	}
	return nil
}
