package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// TestRunReplicationsFailurePath exercises the replication-failure branch
// with an injected runner, which a valid configuration cannot reach.
func TestRunReplicationsFailurePath(t *testing.T) {
	cfg := quickConfig()
	boom := errors.New("boom")

	var mu sync.Mutex
	var seeds []uint64
	failing := func(_ context.Context, c Config) (*Metrics, error) {
		mu.Lock()
		seeds = append(seeds, c.Seed)
		mu.Unlock()
		if c.Seed == cfg.Seed+1 { // replication 1
			return nil, boom
		}
		m := &Metrics{Scheduler: "stub", Direction: "forward"}
		return m, nil
	}

	agg, err := runReplications(context.Background(), cfg, 3, failing)
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
	for _, s := range seeds {
		if !want[s] {
			t.Errorf("unexpected replication seed %d", s)
		}
	}
}

func TestRunReplicationsStubAggregation(t *testing.T) {
	cfg := quickConfig()
	var calls atomic.Int32
	stub := func(_ context.Context, c Config) (*Metrics, error) {
		calls.Add(1)
		return &Metrics{Scheduler: "stub", Direction: "forward", BitsDelivered: 1}, nil
	}
	agg, err := runReplications(context.Background(), cfg, 4, stub)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 || agg.Replications != 4 {
		t.Errorf("calls=%d replications=%d, want 4/4", calls.Load(), agg.Replications)
	}
	if agg.Scheduler != "stub" {
		t.Errorf("aggregate scheduler = %q", agg.Scheduler)
	}
}

func TestResolveFrameParallelAvoidsNestedPools(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrameMode = FrameSnapshot
	// Auto (0) under a parallel replication fan-out resolves to inline.
	if got := ResolveFrameParallel(cfg, 4); got != 1 {
		t.Errorf("auto under n=4 -> %d, want 1 (inline)", got)
	}
	// A single replication keeps the auto pool.
	if got := ResolveFrameParallel(cfg, 1); got != 0 {
		t.Errorf("auto under n=1 -> %d, want 0 (GOMAXPROCS)", got)
	}
	// Explicit worker counts are always honoured.
	cfg.FrameParallel = 8
	if got := ResolveFrameParallel(cfg, 4); got != 8 {
		t.Errorf("explicit 8 under n=4 -> %d, want 8", got)
	}
	// Sequential mode runs its physics on the same pool, so it resolves
	// the same way.
	cfg = DefaultConfig()
	if got := ResolveFrameParallel(cfg, 4); got != 1 {
		t.Errorf("sequential auto under n=4 -> %d, want 1 (inline)", got)
	}
	if got := ResolveFrameParallel(cfg, 1); got != 0 {
		t.Errorf("sequential auto under n=1 -> %d, want 0 (GOMAXPROCS)", got)
	}
}
