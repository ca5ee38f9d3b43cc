package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"jabasd/internal/core"
)

// quickConfig returns a small, fast scenario for unit tests: 7 cells, short
// simulated time, aggressive traffic so bursts actually happen.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Rings = 1
	cfg.SimTime = 8
	cfg.WarmupTime = 1
	cfg.FrameLength = 0.05
	cfg.DataUsersPerCell = 4
	cfg.VoiceUsersPerCell = 4
	cfg.Data.MeanReadingTimeSec = 2
	cfg.Data.MaxSizeBits = 400_000
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.SimTime = 0 },
		func(c *Config) { c.FrameLength = 0 },
		func(c *Config) { c.WarmupTime = c.SimTime + 1 },
		func(c *Config) { c.Rings = -1 },
		func(c *Config) { c.CellRadius = 0 },
		func(c *Config) { c.DataUsersPerCell = -1 },
		func(c *Config) { c.MaxCellPowerW = 0 },
		func(c *Config) { c.NoiseW = 0 },
		func(c *Config) { c.CommonOverheadFrac = 1 },
		func(c *Config) { c.ReverseRiseLimit = 1 },
		func(c *Config) { c.VTAOC.NumModes = 0 },
		func(c *Config) { c.RatePlan.GammaS = 0 },
		func(c *Config) { c.MAC.T3 = c.MAC.T2 - 1 },
		func(c *Config) { c.Objective.RateScale = 0 },
		func(c *Config) { c.Scheduler = "bogus" },
		func(c *Config) { c.UseFixedRatePHY = true; c.FixedRateMode = 99 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d should invalidate the config", i)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if Forward.String() != "forward" || Reverse.String() != "reverse" {
		t.Error("Direction.String broken")
	}
}

func TestNewSchedulerKinds(t *testing.T) {
	kinds := []SchedulerKind{SchedulerJABASD, SchedulerGreedy, SchedulerFCFS, SchedulerEqualShare, SchedulerRandom, ""}
	for _, k := range kinds {
		if _, err := NewScheduler(k, 1); err != nil {
			t.Errorf("NewScheduler(%q) failed: %v", k, err)
		}
	}
	if _, err := NewScheduler("nope", 1); err == nil {
		t.Error("unknown scheduler should fail")
	}
}

func TestRunForwardProducesTraffic(t *testing.T) {
	cfg := quickConfig()
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BurstsGenerated == 0 {
		t.Fatal("no bursts generated; traffic model or warm-up is broken")
	}
	if m.BurstsCompleted == 0 {
		t.Fatal("no bursts completed; admission or service is broken")
	}
	if m.BurstDelay.Mean() == 0 { // 0 when empty
		t.Error("no delay samples recorded")
	}
	if m.MeanBurstDelay() <= 0 {
		t.Error("mean delay should be positive")
	}
	if m.ThroughputPerCell() <= 0 {
		t.Error("throughput should be positive")
	}
	if m.CellLoad.Mean() <= 0 || m.CellLoad.Mean() > 1.5 {
		t.Errorf("mean cell load = %v, expected (0, 1.5]", m.CellLoad.Mean())
	}
	if m.Cells != 7 {
		t.Errorf("cells = %d, want 7", m.Cells)
	}
	// The ratio counts completions and generations inside the observed
	// window independently, so a burst generated just before the warm-up
	// cutoff that completes just after it can push the ratio slightly above
	// 1 on a short run; anything well beyond that means double counting.
	if m.CompletionRatio() <= 0 || m.CompletionRatio() > 1.1 {
		t.Errorf("completion ratio = %v", m.CompletionRatio())
	}
	if m.Coverage() < 0 || m.Coverage() > 1 {
		t.Errorf("coverage = %v", m.Coverage())
	}
	if m.String() == "" {
		t.Error("metrics String empty")
	}
}

func TestRunReverseLink(t *testing.T) {
	cfg := quickConfig()
	cfg.Direction = Reverse
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Direction != "reverse" {
		t.Errorf("direction = %q", m.Direction)
	}
	if m.BurstsGenerated == 0 || m.BurstsCompleted == 0 {
		t.Fatalf("reverse-link run served nothing: %d/%d", m.BurstsCompleted, m.BurstsGenerated)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := quickConfig()
	cfg.SimTime = 4
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.BurstsGenerated != b.BurstsGenerated || a.BurstsCompleted != b.BurstsCompleted {
		t.Errorf("same seed produced different burst counts: %d/%d vs %d/%d",
			a.BurstsCompleted, a.BurstsGenerated, b.BurstsCompleted, b.BurstsGenerated)
	}
	if math.Abs(a.MeanBurstDelay()-b.MeanBurstDelay()) > 1e-12 {
		t.Error("same seed produced different delays")
	}
	if math.Abs(a.BitsDelivered-b.BitsDelivered) > 1e-6 {
		t.Error("same seed produced different delivered bits")
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	cfg := quickConfig()
	cfg.SimTime = 4
	a, _ := Run(context.Background(), cfg)
	cfg.Seed = 999
	b, _ := Run(context.Background(), cfg)
	if a.BitsDelivered == b.BitsDelivered && a.BurstsGenerated == b.BurstsGenerated &&
		a.MeanBurstDelay() == b.MeanBurstDelay() {
		t.Error("different seeds produced identical results; randomisation suspect")
	}
}

func TestRunAllSchedulers(t *testing.T) {
	for _, k := range []SchedulerKind{SchedulerJABASD, SchedulerGreedy, SchedulerFCFS, SchedulerEqualShare, SchedulerRandom} {
		cfg := quickConfig()
		cfg.SimTime = 5
		cfg.Scheduler = k
		m, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if m.BurstsCompleted == 0 {
			t.Errorf("%s completed no bursts", k)
		}
	}
}

func TestRunFixedRatePHYAblation(t *testing.T) {
	cfg := quickConfig()
	cfg.SimTime = 5
	cfg.UseFixedRatePHY = true
	cfg.FixedRateMode = 2
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BurstsGenerated == 0 {
		t.Error("fixed-rate ablation generated no traffic")
	}
}

func TestInvalidConfigRejectedByRun(t *testing.T) {
	cfg := quickConfig()
	cfg.SimTime = 0
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("Run should reject invalid config")
	}
	if _, err := NewEngine(cfg); err == nil {
		t.Error("NewEngine should reject invalid config")
	}
}

func TestRunReplicationsParallelMerge(t *testing.T) {
	cfg := quickConfig()
	cfg.SimTime = 4
	agg, err := RunReplications(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Replications != 3 {
		t.Errorf("replications = %d", agg.Replications)
	}
	// One observation per replication: the fold of the three runs, seeded
	// Seed + r, one by one.
	var want Aggregate
	for r := uint64(0); r < 3; r++ {
		c := cfg
		c.Seed += r
		m, err := Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		want.AddReplication(m)
	}
	if agg.MeanDelay != want.MeanDelay || agg.Throughput != want.Throughput {
		t.Errorf("aggregate delay %+v and throughput %+v, want the fold of the runs: %+v and %+v",
			agg.MeanDelay, agg.Throughput, want.MeanDelay, want.Throughput)
	}
	if agg.MeanDelay.Mean() <= 0 {
		t.Error("aggregate delay should be positive")
	}
	if _, err := RunReplications(context.Background(), cfg, 0); err == nil {
		t.Error("zero replications should fail")
	}
	bad := cfg
	bad.SimTime = 0
	if _, err := RunReplications(context.Background(), bad, 2); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestRunReplicationsReproducible(t *testing.T) {
	cfg := quickConfig()
	cfg.SimTime = 3
	a, err := RunReplications(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplications(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.MeanDelay.Mean()-b.MeanDelay.Mean()) > 1e-12 {
		t.Error("replication aggregate not reproducible for fixed seed")
	}
}

func TestHigherLoadIncreasesDelay(t *testing.T) {
	// Doubling the data population should not reduce the mean burst delay:
	// the headline qualitative behaviour every admission scheme must show.
	light := quickConfig()
	light.SimTime = 10
	light.DataUsersPerCell = 2
	heavy := light
	heavy.DataUsersPerCell = 14
	lm, err := Run(context.Background(), light)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := Run(context.Background(), heavy)
	if err != nil {
		t.Fatal(err)
	}
	if lm.BurstsCompleted == 0 || hm.BurstsCompleted == 0 {
		t.Skip("not enough completions in the short test run to compare")
	}
	if hm.MeanBurstDelay()+1e-9 < lm.MeanBurstDelay()*0.5 {
		t.Errorf("heavy load delay (%v) implausibly below light load delay (%v)",
			hm.MeanBurstDelay(), lm.MeanBurstDelay())
	}
}

func TestObjectiveJ1VersusJ2RunsBoth(t *testing.T) {
	cfg := quickConfig()
	cfg.SimTime = 5
	cfg.Objective = core.Objective{Kind: core.ObjectiveThroughput}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("J1 run failed: %v", err)
	}
	cfg.Objective = core.DefaultObjective()
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("J2 run failed: %v", err)
	}
}

// fingerprint collapses a replication's metrics into exact values that any
// semantic change to the frame loop would perturb.
func fingerprint(m *Metrics) [6]float64 {
	return [6]float64{
		float64(m.BurstsGenerated),
		float64(m.BurstsCompleted),
		m.BitsDelivered,
		m.BurstDelay.Mean(),
		m.CellLoad.Mean(),
		m.AssignedRatio.Mean(),
	}
}

// TestSnapshotModeIdenticalAcrossWorkerCounts is the determinism contract of
// the snapshot frame mode: because every cell solves against the immutable
// frame-start ledger and grants commit in fixed cell order, the output is
// exactly identical whether the solve phase runs inline, on one pooled
// worker, or on many.
func TestSnapshotModeIdenticalAcrossWorkerCounts(t *testing.T) {
	base := quickConfig()
	base.SimTime = 4
	base.FrameMode = FrameSnapshot
	var want [6]float64
	for i, par := range []int{1, 2, 8, 0} {
		cfg := base
		cfg.FrameParallel = par
		m, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("FrameParallel=%d: %v", par, err)
		}
		got := fingerprint(m)
		if i == 0 {
			want = got
			if m.BurstsCompleted == 0 {
				t.Fatal("snapshot run completed no bursts; scenario too light to test determinism")
			}
			continue
		}
		if got != want {
			t.Errorf("FrameParallel=%d diverged: %v vs %v", par, got, want)
		}
	}
}

// TestSnapshotModeIdenticalAcrossWorkerCountsRandomScheduler covers the
// stateful-scheduler path: the Random scheduler's permutations are reseeded
// per (frame, cell) in snapshot mode, so its output too must not depend on
// the worker count or the cell→worker assignment.
func TestSnapshotModeIdenticalAcrossWorkerCountsRandomScheduler(t *testing.T) {
	base := quickConfig()
	base.SimTime = 4
	base.Scheduler = SchedulerRandom
	base.FrameMode = FrameSnapshot
	var want [6]float64
	for i, par := range []int{1, 4} {
		cfg := base
		cfg.FrameParallel = par
		m, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("FrameParallel=%d: %v", par, err)
		}
		if got := fingerprint(m); i == 0 {
			want = got
		} else if got != want {
			t.Errorf("random scheduler diverged across worker counts: %v vs %v", got, want)
		}
	}
}

// TestSequentialModeIdenticalAcrossWorkerCounts is the sequential frame
// mode's counterpart: its pool fans out only the per-user physics and the
// burst rates, which do not depend on admission order, while the cells
// still admit one after another on one worker. So the metrics must be
// exactly identical for any FrameParallel, for the stateless JABA-SD
// scheduler and for the random scheduler's one run-long stream alike. The
// map carries more than one fan-out chunk of users and of live bursts.
func TestSequentialModeIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedulerJABASD, SchedulerRandom} {
		base := quickConfig()
		base.Rings = 2
		base.DataUsersPerCell = 20
		base.Data.MeanReadingTimeSec = 0.2
		base.SimTime = 4
		base.Scheduler = kind
		base.FrameMode = FrameSequential
		var want *Metrics
		for _, par := range []int{1, 2, 8, 0} {
			cfg := base
			cfg.FrameParallel = par
			m, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s, FrameParallel=%d: %v", kind, par, err)
			}
			if want == nil {
				if m.BurstsCompleted == 0 {
					t.Fatalf("%s: sequential run completed no bursts; scenario too light to test determinism", kind)
				}
				want = m
				continue
			}
			if !reflect.DeepEqual(m, want) {
				t.Errorf("%s, FrameParallel=%d diverged: %v vs %v", kind, par, fingerprint(m), fingerprint(want))
			}
		}
	}
}

// TestFrameModesAgreeOnSingleCell pins down where sequential and snapshot
// admission are allowed to diverge: within one frame, sequential mode lets
// cell k see the grants of cells < k, snapshot mode does not. With a single
// cell there are no other cells to couple to, so the two modes must be
// exactly identical — any difference here would mean the snapshot refactor
// changed the per-cell admission itself.
func TestFrameModesAgreeOnSingleCell(t *testing.T) {
	for _, dir := range []Direction{Forward, Reverse} {
		cfg := quickConfig()
		cfg.SimTime = 5
		cfg.Rings = 0 // one cell
		cfg.DataUsersPerCell = 8
		cfg.Direction = dir
		seq, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FrameMode = FrameSnapshot
		cfg.FrameParallel = 2
		snap, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seq.BurstsCompleted == 0 {
			t.Fatalf("%s: no bursts completed; scenario too light", dir)
		}
		if fingerprint(seq) != fingerprint(snap) {
			t.Errorf("%s: single-cell run diverged between frame modes: %v vs %v",
				dir, fingerprint(seq), fingerprint(snap))
		}
	}
}

// TestFrameModesDivergeUnderMultiCellLoad is the counterpart: with many
// loaded cells, sequential mode's intra-frame coupling (later cells see
// earlier cells' grants in the shared ledger) must eventually produce a
// different trajectory than the snapshot semantics. If this test ever
// fails, the two modes have collapsed into one and the FrameMode knob is
// dead code.
func TestFrameModesDivergeUnderMultiCellLoad(t *testing.T) {
	cfg := quickConfig()
	cfg.SimTime = 8
	cfg.DataUsersPerCell = 14 // enough contention for cross-cell coupling
	seq, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FrameMode = FrameSnapshot
	snap, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.BurstsCompleted == 0 || snap.BurstsCompleted == 0 {
		t.Fatal("no bursts completed; scenario too light to couple cells")
	}
	if fingerprint(seq) == fingerprint(snap) {
		t.Error("sequential and snapshot modes produced identical output under multi-cell load; intra-frame coupling lost")
	}
}

// TestSnapshotModeRequiresClonableScheduler documents the enforcement path:
// the snapshot mode hands every worker its own scheduler instance, so a
// scheduler that cannot clone itself is rejected at engine construction.
func TestSnapshotModeRequiresClonableScheduler(t *testing.T) {
	cfg := quickConfig()
	cfg.FrameMode = FrameSnapshot
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("built-in schedulers all implement core.Cloner: %v", err)
	}
	e.Close()
	cfg.FrameMode = "warp"
	if _, err := NewEngine(cfg); err == nil {
		t.Error("unknown frame mode should be rejected")
	}
	cfg.FrameMode = FrameSnapshot
	cfg.FrameParallel = -1
	if _, err := NewEngine(cfg); err == nil {
		t.Error("negative FrameParallel should be rejected")
	}
}
