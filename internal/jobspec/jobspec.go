// Package jobspec is the shared, JSON-first description of the work the
// tools run: a single simulation (RunSpec), a parameter sweep (SweepSpec)
// or the experiment suite (ExperimentsSpec). The four commands (jabasim,
// jabasweep, jabaexp, jabaserve) all translate their inputs — CLI flags or
// HTTP request bodies — into these specs and resolve them through the same
// code, so a scenario that runs one way from the shell runs exactly the
// same way through the server.
//
// Every spec resolves with full conflict detection (a named grid excludes
// ad-hoc axes, a preset excludes an inline config, an override excludes an
// axis sweeping the same parameter) and full validation via
// sim.Config.Validate, which reports every violation at once.
package jobspec

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"jabasd/internal/experiments"
	"jabasd/internal/fault"
	"jabasd/internal/scenario"
	"jabasd/internal/sim"
	"jabasd/internal/sweep"
)

// Scenario selects the base configuration: a named preset or an inline
// sim.Config JSON object — at most one of the two. Neither set means the
// baseline preset.
type Scenario struct {
	// Preset is a named scenario (see scenario.Names).
	Preset string `json:"preset,omitempty"`
	// Config is an inline sim.Config JSON object; unspecified fields keep
	// their defaults and unknown keys are refused, exactly as in a -config
	// file.
	Config json.RawMessage `json:"config,omitempty"`
}

// Resolve returns the selected base configuration (not yet validated —
// overrides may still apply on top; RunSpec.Resolve validates the final
// result).
func (s Scenario) Resolve() (sim.Config, error) {
	if s.Preset != "" && len(s.Config) > 0 {
		return sim.Config{}, errors.New("jobspec: preset and config are exclusive; drop one")
	}
	if len(s.Config) > 0 {
		cfg := sim.DefaultConfig()
		if err := json.Unmarshal(s.Config, &cfg); err != nil {
			return sim.Config{}, fmt.Errorf("jobspec: decode config: %w", err)
		}
		return cfg, nil
	}
	return scenario.Lookup(s.Preset)
}

// Overrides layers the flag-style adjustments every tool offers on top of a
// resolved base configuration. Zero values mean "keep the base's"; the
// pointer fields distinguish "unset" from a legitimate zero.
type Overrides struct {
	Scheduler     string   `json:"scheduler,omitempty"`
	Direction     string   `json:"direction,omitempty"`
	DataUsers     *int     `json:"data_users,omitempty"`
	SimTime       float64  `json:"sim_time,omitempty"`
	WarmupTime    *float64 `json:"warmup_time,omitempty"`
	Seed          uint64   `json:"seed,omitempty"`
	FrameMode     string   `json:"frame_mode,omitempty"`
	FrameParallel *int     `json:"frame_parallel,omitempty"`
	ExactPHY      bool     `json:"exact_phy,omitempty"`
	// FaultProfile replaces the scenario's fault schedule with a named
	// profile (see fault.Profiles) scaled to the resolved run length;
	// "none" clears it.
	FaultProfile string `json:"fault_profile,omitempty"`
	// Faults replaces the scenario's fault schedule with an explicit one
	// (cell outages/derates and load events); exclusive with FaultProfile.
	Faults *fault.Schedule `json:"faults,omitempty"`
	// NodeBudget caps the exact solver's branch-and-bound nodes per
	// cell-frame (sim.Config.SolveNodeBudget); 0 removes the cap.
	NodeBudget *int `json:"node_budget,omitempty"`
}

// Apply layers the set overrides onto cfg. The overrides that name a
// sweep axis apply through the axis registry (sweep.Set), last, so a fault
// profile scales to the run length as overridden; their value errors are
// reported all at once, and numeric ranges are left to cfg.Validate.
func (o Overrides) Apply(cfg *sim.Config) error {
	var errs []error
	if o.SimTime != 0 {
		cfg.SimTime = o.SimTime
	}
	if o.WarmupTime != nil {
		cfg.WarmupTime = *o.WarmupTime
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.FrameParallel != nil {
		cfg.FrameParallel = *o.FrameParallel
	}
	if o.ExactPHY {
		cfg.ExactPHY = true
	}
	if o.NodeBudget != nil {
		cfg.SolveNodeBudget = *o.NodeBudget
	}
	switch {
	case o.FaultProfile != "" && o.Faults != nil:
		errs = append(errs, errors.New("jobspec: fault_profile and faults are exclusive; drop one"))
	case o.Faults != nil:
		cfg.Faults = o.Faults
	}
	for _, v := range o.axes() {
		if err := sweep.Set(cfg, v.Axis, v.Value); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// axes lists the set overrides that name a sweep axis, as axis values.
func (o Overrides) axes() []sweep.AxisValue {
	var out []sweep.AxisValue
	add := func(axis, value string) {
		if value != "" {
			out = append(out, sweep.AxisValue{Axis: axis, Value: value})
		}
	}
	add("scheduler", o.Scheduler)
	add("direction", o.Direction)
	if o.DataUsers != nil {
		add("datausers", strconv.Itoa(*o.DataUsers))
	}
	add("framemode", o.FrameMode)
	add("faultprofile", o.FaultProfile)
	return out
}

// CheckpointSpec adds checkpoint/resume behaviour to a run: write a
// versioned snapshot of the engine state to Path every Every frames
// (atomically — a crash never leaves a torn file), and/or start the run
// from the snapshot at Resume instead of frame 0. A checkpoint captures
// exactly one engine, so a spec carrying one requires Reps <= 1; a resumed
// scenario comes from the checkpoint itself, so Resume excludes Preset and
// Config. Overrides still apply on resume, but only the non-semantic
// execution knobs pass the checkpoint's compatibility check
// (sim.Checkpoint.Compatible) — a semantic change is refused at resolution
// time.
type CheckpointSpec struct {
	// Path is the checkpoint file to write; requires Every > 0.
	Path string `json:"path,omitempty"`
	// Every is the checkpoint cadence in frames.
	Every int `json:"every,omitempty"`
	// Resume is a checkpoint file to start from.
	Resume string `json:"resume,omitempty"`
}

func (c *CheckpointSpec) validate(reps int) error {
	var errs []error
	if c.Path == "" && c.Resume == "" {
		errs = append(errs, errors.New("jobspec: checkpoint spec needs a path to write and/or a checkpoint to resume"))
	}
	if (c.Path != "") != (c.Every > 0) {
		errs = append(errs, errors.New("jobspec: checkpoint path and a positive cadence (every) go together"))
	}
	if reps > 1 {
		errs = append(errs, fmt.Errorf("jobspec: a checkpoint captures one engine; it cannot describe %d replications", reps))
	}
	return errors.Join(errs...)
}

// RunSpec describes one simulation: a base scenario, overrides, a
// replication count and optional checkpoint/resume behaviour.
type RunSpec struct {
	Scenario
	Overrides Overrides `json:"overrides"`
	// Reps is the number of independent replications (0 and 1 both mean a
	// single run).
	Reps int `json:"reps,omitempty"`
	// Checkpoint, when set, makes the run checkpointable and/or resumed.
	Checkpoint *CheckpointSpec `json:"checkpoint,omitempty"`
}

// Resolve produces the validated configuration and replication count. For a
// resuming spec the base scenario is the checkpoint's own stored config and
// the compatibility of the overridden result is checked here, so a bad
// resume fails at submission rather than inside a worker; the (single-shot)
// checkpoint file is read again by Start.
func (s RunSpec) Resolve() (sim.Config, int, error) {
	reps := s.Reps
	if reps <= 0 {
		reps = 1
	}
	var cfg sim.Config
	if s.Checkpoint != nil {
		if err := s.Checkpoint.validate(reps); err != nil {
			return sim.Config{}, 0, err
		}
	}
	if s.Checkpoint != nil && s.Checkpoint.Resume != "" {
		if s.Preset != "" || len(s.Config) > 0 {
			return sim.Config{}, 0, errors.New("jobspec: a resumed run takes its scenario from the checkpoint; drop preset/config")
		}
		ck, err := sim.ReadCheckpointFile(s.Checkpoint.Resume)
		if err != nil {
			return sim.Config{}, 0, err
		}
		cfg = ck.Config()
		if err := s.Overrides.Apply(&cfg); err != nil {
			return sim.Config{}, 0, err
		}
		if err := ck.Compatible(cfg); err != nil {
			return sim.Config{}, 0, err
		}
	} else {
		var err error
		cfg, err = s.Scenario.Resolve()
		if err != nil {
			return sim.Config{}, 0, err
		}
		if err := s.Overrides.Apply(&cfg); err != nil {
			return sim.Config{}, 0, err
		}
	}
	if s.Checkpoint != nil && s.Checkpoint.Path != "" {
		cfg.CheckpointEvery = s.Checkpoint.Every
		cfg.CheckpointSink = sim.FileCheckpointSink(s.Checkpoint.Path)
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, 0, err
	}
	return cfg, reps, nil
}

// Start builds the engine for a resolved single run: resumed from the
// spec's checkpoint when one is named, fresh otherwise. cfg must be the
// Resolve result, possibly with trace sinks attached — attaching a sink
// never changes the scenario the resume is checked against.
func (s RunSpec) Start(cfg sim.Config) (*sim.Engine, error) {
	if s.Checkpoint != nil && s.Checkpoint.Resume != "" {
		ck, err := sim.ReadCheckpointFile(s.Checkpoint.Resume)
		if err != nil {
			return nil, err
		}
		return ck.Resume(cfg)
	}
	return sim.NewEngine(cfg)
}

// SweepSpec describes a parameter sweep: a named grid, or a base scenario
// plus ad-hoc axes.
type SweepSpec struct {
	// Grid is a built-in named grid (see sweep.Grids). It carries its own
	// preset and axes, so it excludes Preset, Config and Axes.
	Grid string `json:"grid,omitempty"`
	Scenario
	// Axes are "name=v1,v2,..." axis specifications (see sweep.Axes).
	Axes []string `json:"axes,omitempty"`
	// Reps is the number of independent replications per grid point.
	Reps int `json:"reps,omitempty"`
	// Parallel bounds concurrent (point × replication) work items
	// (0 = GOMAXPROCS).
	Parallel int `json:"parallel,omitempty"`
	// Overrides apply to every grid point, after the axis values. An
	// override of a swept parameter is a conflict. Overrides.Seed becomes
	// the sweep's base seed.
	Overrides Overrides `json:"overrides"`
}

// Resolve produces the expanded grid and runner options, rejecting
// grid/scenario/axis/override conflicts.
func (s SweepSpec) Resolve() (sweep.Grid, sweep.Options, error) {
	if s.Parallel < 0 {
		return sweep.Grid{}, sweep.Options{}, fmt.Errorf("jobspec: parallel must be >= 0 (0 = GOMAXPROCS), got %d", s.Parallel)
	}
	var g sweep.Grid
	if s.Grid != "" {
		if s.Preset != "" || len(s.Config) > 0 || len(s.Axes) > 0 {
			return sweep.Grid{}, sweep.Options{},
				errors.New("jobspec: a named grid carries its own preset and axes; drop preset/config/axes")
		}
		var err error
		g, err = sweep.LookupGrid(s.Grid)
		if err != nil {
			return sweep.Grid{}, sweep.Options{}, err
		}
	} else {
		base, err := s.Scenario.Resolve()
		if err != nil {
			return sweep.Grid{}, sweep.Options{}, err
		}
		g, err = sweep.New(s.Preset, s.Axes)
		if err != nil {
			return sweep.Grid{}, sweep.Options{}, err
		}
		if len(s.Config) > 0 {
			g.Base = &base
		}
	}

	// Sweeping an axis and overriding it at once would silently mislabel
	// every row. An explicit fault schedule sets what the faultprofile axis
	// does.
	overridden := map[string]bool{"faultprofile": s.Overrides.Faults != nil}
	for _, v := range s.Overrides.axes() {
		overridden[v.Axis] = true
	}
	for _, ax := range g.Axes {
		if overridden[ax.Name] {
			return sweep.Grid{}, sweep.Options{},
				fmt.Errorf("jobspec: override conflicts with the %s axis; drop one", ax.Name)
		}
	}

	opts := sweep.Options{Reps: s.Reps, Parallel: s.Parallel, BaseSeed: s.Overrides.Seed}
	// The remaining overrides mutate every point after its axis values are
	// baked in. Seed is carried by BaseSeed (the sweep derives per-point
	// seeds from it), so it must not also be forced onto each config.
	mut := s.Overrides
	mut.Seed = 0
	if mut != (Overrides{}) {
		// Surface enum errors now rather than from inside the runner.
		probe := sim.DefaultConfig()
		if err := mut.Apply(&probe); err != nil {
			return sweep.Grid{}, sweep.Options{}, err
		}
		opts.Mutate = func(c *sim.Config) { mut.Apply(c) }
	}
	return g, opts, nil
}

// ExperimentsSpec describes an experiment-suite run.
type ExperimentsSpec struct {
	// Only lists experiment ids to run (e.g. ["E1","E5"]); empty means the
	// whole registry, in suite order.
	Only []string `json:"only,omitempty"`
	// Scale is "quick" (default) or "full".
	Scale string `json:"scale,omitempty"`
	// Parallel bounds the simulation runs in flight (0 = GOMAXPROCS).
	Parallel int `json:"parallel,omitempty"`
	// ExactPHY runs the dynamic experiments on the bit-exact reference
	// physics.
	ExactPHY bool `json:"exact_phy,omitempty"`
}

// Resolve selects the experiments and scale.
func (s ExperimentsSpec) Resolve() ([]experiments.Experiment, experiments.Scale, error) {
	if s.Parallel < 0 {
		return nil, experiments.Scale{}, fmt.Errorf("jobspec: parallel must be >= 0 (0 = GOMAXPROCS), got %d", s.Parallel)
	}
	var scale experiments.Scale
	switch s.Scale {
	case "", "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		return nil, experiments.Scale{}, fmt.Errorf("jobspec: unknown scale %q (want quick or full)", s.Scale)
	}
	scale.ExactPHY = s.ExactPHY

	defs, err := SelectExperiments(s.Only)
	if err != nil {
		return nil, experiments.Scale{}, err
	}
	return defs, scale, nil
}

// SelectExperiments resolves a list of experiment ids against the registry,
// keeping suite order; ids are case-insensitive and unknown ids are an
// error, not a silent no-op. An empty list selects the whole registry.
func SelectExperiments(ids []string) ([]experiments.Experiment, error) {
	if len(ids) == 0 {
		return experiments.Registry(), nil
	}
	wanted := map[string]bool{}
	for _, raw := range ids {
		id := strings.ToUpper(strings.TrimSpace(raw))
		if id == "" {
			continue
		}
		if _, ok := experiments.ByID(id); !ok {
			return nil, fmt.Errorf("jobspec: unknown experiment id %q (valid ids: %s)",
				raw, strings.Join(experiments.IDs(), ", "))
		}
		wanted[id] = true
	}
	if len(wanted) == 0 {
		return nil, fmt.Errorf("jobspec: no experiments selected (valid ids: %s)",
			strings.Join(experiments.IDs(), ", "))
	}
	var defs []experiments.Experiment
	for _, d := range experiments.Registry() {
		if wanted[d.ID] {
			defs = append(defs, d)
		}
	}
	return defs, nil
}
