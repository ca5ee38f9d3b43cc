package jobspec

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"jabasd/internal/scenario"
	"jabasd/internal/sim"
)

func TestScenarioPresetAndConfigConflict(t *testing.T) {
	s := Scenario{Preset: "smoke", Config: json.RawMessage(`{}`)}
	if _, err := s.Resolve(); err == nil || !strings.Contains(err.Error(), "exclusive") {
		t.Errorf("preset+config should conflict, got %v", err)
	}
}

func TestScenarioDefaultsToBaseline(t *testing.T) {
	cfg, err := Scenario{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := scenario.Lookup("")
	if cfg.DataUsersPerCell != want.DataUsersPerCell {
		t.Errorf("empty scenario = %d data users, want baseline's %d",
			cfg.DataUsersPerCell, want.DataUsersPerCell)
	}
}

func TestScenarioInlineConfigKeepsDefaults(t *testing.T) {
	cfg, err := Scenario{Config: json.RawMessage(`{"DataUsersPerCell": 3, "Direction": "reverse"}`)}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DataUsersPerCell != 3 || cfg.Direction != sim.Reverse {
		t.Errorf("inline fields not applied: %d %v", cfg.DataUsersPerCell, cfg.Direction)
	}
	if cfg.MaxCellPowerW != sim.DefaultConfig().MaxCellPowerW {
		t.Error("unspecified fields should keep their defaults")
	}
}

func TestRunSpecResolveAppliesOverrides(t *testing.T) {
	users := 5
	spec := RunSpec{
		Scenario: Scenario{Preset: "smoke"},
		Overrides: Overrides{
			Scheduler: "fcfs",
			Direction: "reverse",
			DataUsers: &users,
			SimTime:   7,
			Seed:      99,
			FrameMode: "snapshot",
			ExactPHY:  true,
		},
		Reps: 3,
	}
	cfg, reps, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if reps != 3 {
		t.Errorf("reps = %d", reps)
	}
	if cfg.Scheduler != sim.SchedulerFCFS || cfg.Direction != sim.Reverse ||
		cfg.DataUsersPerCell != 5 || cfg.SimTime != 7 || cfg.Seed != 99 ||
		cfg.FrameMode != sim.FrameSnapshot || !cfg.ExactPHY {
		t.Errorf("overrides not applied: %+v", cfg)
	}
}

func TestOverridesReportAllEnumErrorsAtOnce(t *testing.T) {
	cfg := sim.DefaultConfig()
	err := Overrides{Scheduler: "nope", Direction: "up", FrameMode: "wat"}.Apply(&cfg)
	if err == nil {
		t.Fatal("expected errors")
	}
	for _, want := range []string{"nope", "direction", "frame mode"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error should mention %q: %v", want, err)
		}
	}
}

func TestSweepSpecNamedGridExcludesAdHocParts(t *testing.T) {
	for _, s := range []SweepSpec{
		{Grid: "paper-load-sweep", Scenario: Scenario{Preset: "smoke"}},
		{Grid: "paper-load-sweep", Axes: []string{"datausers=2"}},
		{Grid: "paper-load-sweep", Scenario: Scenario{Config: json.RawMessage(`{}`)}},
	} {
		if _, _, err := s.Resolve(); err == nil {
			t.Errorf("spec %+v should conflict", s)
		}
	}
}

func TestSweepSpecOverrideVsAxisConflict(t *testing.T) {
	users := 4
	for _, s := range []SweepSpec{
		{Scenario: Scenario{Preset: "smoke"}, Axes: []string{"datausers=2,4"}, Overrides: Overrides{DataUsers: &users}},
		{Scenario: Scenario{Preset: "smoke"}, Axes: []string{"framemode=sequential,snapshot"}, Overrides: Overrides{FrameMode: "snapshot"}},
		{Scenario: Scenario{Preset: "smoke"}, Axes: []string{"scheduler=fcfs,jaba-sd"}, Overrides: Overrides{Scheduler: "fcfs"}},
	} {
		if _, _, err := s.Resolve(); err == nil || !strings.Contains(err.Error(), "axis") {
			t.Errorf("spec %+v should report an axis conflict, got %v", s, err)
		}
	}
}

func TestSweepSpecInlineConfigAnchorsGrid(t *testing.T) {
	spec := SweepSpec{
		Scenario: Scenario{Config: json.RawMessage(`{"Rings": 1, "SimTime": 5, "WarmupTime": 1}`)},
		Axes:     []string{"datausers=2,4"},
	}
	g, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if g.Base == nil || g.Base.Rings != 1 || g.Base.SimTime != 5 {
		t.Fatalf("grid base not anchored on the inline config: %+v", g.Base)
	}
	points, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[1].Config.DataUsersPerCell != 4 || points[1].Config.Rings != 1 {
		t.Errorf("points not expanded from the inline base: %+v", points)
	}
}

func TestSweepSpecSeedAndMutate(t *testing.T) {
	spec := SweepSpec{
		Scenario:  Scenario{Preset: "smoke"},
		Axes:      []string{"datausers=2"},
		Reps:      2,
		Parallel:  4,
		Overrides: Overrides{Seed: 7, ExactPHY: true},
	}
	_, opts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if opts.BaseSeed != 7 || opts.Reps != 2 || opts.Parallel != 4 {
		t.Errorf("options = %+v", opts)
	}
	if opts.Mutate == nil {
		t.Fatal("ExactPHY override should install a mutator")
	}
	cfg := sim.DefaultConfig()
	opts.Mutate(&cfg)
	if !cfg.ExactPHY {
		t.Error("mutator should set ExactPHY")
	}
	if cfg.Seed != sim.DefaultConfig().Seed {
		t.Error("seed must ride on BaseSeed, not the per-point mutator")
	}
}

func TestExperimentsSpecResolve(t *testing.T) {
	defs, scale, err := ExperimentsSpec{Only: []string{"e1", "E3"}, Scale: "full", ExactPHY: true}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 2 || defs[0].ID != "E1" || defs[1].ID != "E3" {
		t.Errorf("defs = %+v", defs)
	}
	if scale.Name != "full" || !scale.ExactPHY {
		t.Errorf("scale = %+v", scale)
	}
	if _, _, err := (ExperimentsSpec{Scale: "huge"}).Resolve(); err == nil {
		t.Error("unknown scale should fail")
	}
	if _, _, err := (ExperimentsSpec{Only: []string{"E99"}}).Resolve(); err == nil {
		t.Error("unknown experiment id should fail")
	}
}

// TestNegativeParallelRefused pins that a negative parallel is an error
// naming the field, not a silent GOMAXPROCS.
func TestNegativeParallelRefused(t *testing.T) {
	_, _, sweepErr := SweepSpec{Scenario: Scenario{Preset: "smoke"}, Parallel: -1}.Resolve()
	_, _, expErr := ExperimentsSpec{Parallel: -3}.Resolve()
	for _, err := range []error{sweepErr, expErr} {
		if err == nil || !strings.Contains(err.Error(), "parallel") {
			t.Errorf("negative parallel: err = %v, want an error naming parallel", err)
		}
	}
	if _, _, err := (SweepSpec{Scenario: Scenario{Preset: "smoke"}, Parallel: 0}).Resolve(); err != nil {
		t.Errorf("parallel 0 (GOMAXPROCS) refused: %v", err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	in := `{"preset":"smoke","overrides":{"scheduler":"fcfs","seed":5},"reps":2}`
	var spec RunSpec
	if err := json.Unmarshal([]byte(in), &spec); err != nil {
		t.Fatal(err)
	}
	cfg, reps, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheduler != sim.SchedulerFCFS || cfg.Seed != 5 || reps != 2 {
		t.Errorf("resolved %+v reps=%d", cfg, reps)
	}
}

func TestRunSpecCheckpointResolve(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "state.ckpt")

	// A writing spec attaches the cadence and the file sink.
	spec := RunSpec{
		Scenario:   Scenario{Preset: "smoke"},
		Overrides:  Overrides{SimTime: 3},
		Checkpoint: &CheckpointSpec{Path: ck, Every: 25},
	}
	cfg, reps, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if reps != 1 || cfg.CheckpointEvery != 25 || cfg.CheckpointSink == nil {
		t.Fatalf("resolved reps=%d every=%d sink=%v", reps, cfg.CheckpointEvery, cfg.CheckpointSink != nil)
	}

	// Produce a real checkpoint, then resolve a resuming spec against it.
	e, err := spec.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := RunSpec{Checkpoint: &CheckpointSpec{Resume: ck}}
	rcfg, _, err := res.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rcfg.SimTime != cfg.SimTime {
		t.Fatalf("resumed config lost the scenario: SimTime %v, want %v", rcfg.SimTime, cfg.SimTime)
	}
	re, err := res.Start(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.Frame() == 0 {
		t.Fatal("resumed engine starts at frame 0")
	}
	if _, err := re.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	bad := map[string]RunSpec{
		"empty-spec":      {Scenario: Scenario{Preset: "smoke"}, Checkpoint: &CheckpointSpec{}},
		"path-sans-every": {Scenario: Scenario{Preset: "smoke"}, Checkpoint: &CheckpointSpec{Path: ck}},
		"every-sans-path": {Scenario: Scenario{Preset: "smoke"}, Checkpoint: &CheckpointSpec{Every: 10}},
		"reps":            {Scenario: Scenario{Preset: "smoke"}, Reps: 2, Checkpoint: &CheckpointSpec{Path: ck, Every: 10}},
		"resume+preset":   {Scenario: Scenario{Preset: "smoke"}, Checkpoint: &CheckpointSpec{Resume: ck}},
		"semantic-override": {
			Overrides:  Overrides{Seed: 99},
			Checkpoint: &CheckpointSpec{Resume: ck},
		},
		"missing-file": {Checkpoint: &CheckpointSpec{Resume: filepath.Join(dir, "missing.ckpt")}},
	}
	for name, s := range bad {
		if _, _, err := s.Resolve(); err == nil {
			t.Errorf("%s: should fail to resolve", name)
		}
	}
}
