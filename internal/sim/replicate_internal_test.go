package sim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestRunReplicationsSameAggregateAcrossGOMAXPROCS pins the determinism
// contract: the merged aggregate is bit-identical whether the replications
// run one at a time or fully in parallel, because seeds derive from the
// replication index and the merge happens in input order.
func TestRunReplicationsSameAggregateAcrossGOMAXPROCS(t *testing.T) {
	cfg := quickConfig()
	cfg.SimTime = 3

	old := runtime.GOMAXPROCS(1)
	serial, serialErr := RunReplications(context.Background(), cfg, 3)
	runtime.GOMAXPROCS(old)
	if serialErr != nil {
		t.Fatal(serialErr)
	}

	parallel, err := RunReplications(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}

	type probe struct {
		name string
		from func(*Aggregate) float64
	}
	probes := []probe{
		{"mean delay", func(a *Aggregate) float64 { return a.MeanDelay.Mean() }},
		{"p90 delay", func(a *Aggregate) float64 { return a.P90Delay.Mean() }},
		{"throughput", func(a *Aggregate) float64 { return a.Throughput.Mean() }},
		{"coverage", func(a *Aggregate) float64 { return a.Coverage.Mean() }},
		{"cell load", func(a *Aggregate) float64 { return a.CellLoad.Mean() }},
		{"completion", func(a *Aggregate) float64 { return a.CompletionRate.Mean() }},
		{"delay CI", func(a *Aggregate) float64 { return a.MeanDelay.ConfidenceInterval95() }},
	}
	for _, p := range probes {
		if a, b := p.from(serial), p.from(parallel); a != b {
			t.Errorf("%s differs across GOMAXPROCS: %v vs %v", p.name, a, b)
		}
	}
	if serial.Replications != parallel.Replications {
		t.Errorf("replication counts differ: %d vs %d", serial.Replications, parallel.Replications)
	}
}

// TestReplicateMatchesPerConfigurationRuns checks that one fan-out over
// several configurations emits them in input order, each with the
// aggregate its own RunReplications gives: the shared fan-out mixes no
// runs across configurations.
func TestReplicateMatchesPerConfigurationRuns(t *testing.T) {
	cfgs := []Config{quickConfig(), quickConfig()}
	cfgs[0].SimTime = 3
	cfgs[1].SimTime, cfgs[1].Seed, cfgs[1].DataUsersPerCell = 3, 9, 6
	var order []int
	err := Replicate(context.Background(), cfgs, 2, 3, func(i int, agg *Aggregate) error {
		order = append(order, i)
		want, err := RunReplications(context.Background(), cfgs[i], 2)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(agg, want) {
			t.Errorf("configuration %d: aggregate differs from its own RunReplications", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1}) {
		t.Errorf("emit order %v, want [0 1]", order)
	}
}

// TestRunReplicationsFailurePath exercises the replication-failure branch
// with a checkpoint sink that fails only in replication 1, which it tells
// apart by the seed stored in the checkpoint.
func TestRunReplicationsFailurePath(t *testing.T) {
	cfg := quickConfig()
	boom := errors.New("boom")

	var mu sync.Mutex
	seeds := map[uint64]bool{}
	cfg.CheckpointEvery = 20
	cfg.CheckpointSink = func(_ int, write func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return err
		}
		ck, err := ReadCheckpoint(&buf)
		if err != nil {
			return err
		}
		seed := ck.Config().Seed
		mu.Lock()
		seeds[seed] = true
		mu.Unlock()
		if seed == cfg.Seed+1 { // replication 1
			return boom
		}
		return nil
	}

	agg, err := RunReplications(context.Background(), cfg, 3)
	if agg != nil {
		t.Error("failed run should not return an aggregate")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "replication 1") {
		t.Errorf("error should name the failing replication: %q", err)
	}

	// The per-replication seeds follow cfg.Seed + i regardless of order.
	want := map[uint64]bool{cfg.Seed: true, cfg.Seed + 1: true, cfg.Seed + 2: true}
	for s := range seeds {
		if !want[s] {
			t.Errorf("unexpected replication seed %d", s)
		}
	}
}

// TestFrameWorkers pins the one rule that splits a CPU budget between the
// engines in flight and their frame pools.
func TestFrameWorkers(t *testing.T) {
	cases := []struct {
		name                  string
		frameParallel         int
		runs, parallel, wantN int
	}{
		{"explicit count honoured", 8, 4, 2, 8},
		{"one run gets the budget", 0, 1, 8, 8},
		{"budget of GOMAXPROCS", 0, 1, 0, runtime.GOMAXPROCS(0)},
		{"runs fill the budget", 0, 4, 2, 1},
		{"budget split over runs", 0, 3, 8, 2},
		{"no runs count as one", 0, 0, 8, 8},
		{"budget of one runs inline", 0, 4, 1, 1},
	}
	for _, tc := range cases {
		for _, mode := range []FrameMode{FrameSequential, FrameSnapshot} {
			cfg := DefaultConfig()
			cfg.FrameMode, cfg.FrameParallel = mode, tc.frameParallel
			if got := FrameWorkers(cfg, tc.runs, tc.parallel); got != tc.wantN {
				t.Errorf("%s (%s): FrameWorkers(FrameParallel %d, runs %d, parallel %d) = %d, want %d",
					tc.name, mode, tc.frameParallel, tc.runs, tc.parallel, got, tc.wantN)
			}
		}
	}
}

// TestReplicateFrameWorkers reads the FrameParallel each run of a
// Replicate fan-out actually got from the configuration its checkpoints
// carry: at parallel 1 every auto run is inline, and a wider budget is
// split across the runs.
func TestReplicateFrameWorkers(t *testing.T) {
	cases := []struct {
		name          string
		parallel      int
		frameParallel []int // one configuration each
		reps          int
		want          []int // per configuration
	}{
		{"parallel 1 runs inline", 1, []int{0, 0, 3}, 2, []int{1, 1, 3}},
		{"one run gets the budget", 2, []int{0}, 1, []int{2}},
		{"budget split over runs", 4, []int{0, 0}, 1, []int{2, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			got := map[uint64]int{} // seed -> FrameParallel
			cfgs := make([]Config, len(tc.frameParallel))
			for i, fp := range tc.frameParallel {
				cfg := quickConfig()
				cfg.SimTime, cfg.WarmupTime = 0.2, 0.1
				cfg.Seed = uint64(100 * (i + 1))
				cfg.FrameParallel = fp
				cfg.CheckpointEvery = 1
				cfg.CheckpointSink = func(_ int, write func(io.Writer) error) error {
					var buf bytes.Buffer
					if err := write(&buf); err != nil {
						return err
					}
					ck, err := ReadCheckpoint(&buf)
					if err != nil {
						return err
					}
					mu.Lock()
					defer mu.Unlock()
					got[ck.Config().Seed] = ck.Config().FrameParallel
					return nil
				}
				cfgs[i] = cfg
			}
			err := Replicate(context.Background(), cfgs, tc.reps, tc.parallel, func(int, *Aggregate) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				for r := range tc.reps {
					seed := cfg.Seed + uint64(r)
					if fp, ok := got[seed]; !ok || fp != tc.want[i] {
						t.Errorf("configuration %d replication %d: FrameParallel %d (checkpointed %v), want %d",
							i, r, fp, ok, tc.want[i])
					}
				}
			}
		})
	}
}
