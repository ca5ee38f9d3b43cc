package sim

import (
	"context"
	"fmt"

	"jabasd/internal/stream"
)

// RunReplications runs n independent replications of the scenario in
// parallel (bounded by GOMAXPROCS) and merges their metrics. Replication i
// uses seed cfg.Seed + i, so results are reproducible for a given base seed
// regardless of scheduling. Cancelling the context stops every in-flight
// replication promptly (each engine checks it once per frame) and returns
// the context's error.
func RunReplications(ctx context.Context, cfg Config, n int) (*Aggregate, error) {
	return runReplications(ctx, cfg, n, Run)
}

// runReplications is RunReplications with the per-replication runner
// injectable, so tests can exercise the failure path without needing a
// configuration that validates but crashes mid-simulation.
func runReplications(ctx context.Context, cfg Config, n int, runOne func(context.Context, Config) (*Metrics, error)) (*Aggregate, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: need at least one replication, got %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	ms := make([]*Metrics, n)
	agg := &Aggregate{}
	err := stream.Ordered(n, 0,
		func(i int) error {
			// A replication that has not started yet fails fast on a
			// cancelled context instead of simulating a doomed run.
			if err := ctx.Err(); err != nil {
				return err
			}
			repCfg := cfg
			repCfg.Seed = cfg.Seed + uint64(i)
			repCfg.FrameParallel = ResolveFrameParallel(cfg, n)
			if i != 0 {
				// Replications run concurrently but a trace.Sink is
				// single-writer; replication 0 keeps the telemetry, the
				// rest run untraced.
				repCfg.Trace = nil
			}
			m, err := runOne(ctx, repCfg)
			if err != nil {
				if ctx.Err() != nil {
					return err // the cancellation, not a simulation failure
				}
				return fmt.Errorf("sim: replication %d failed: %w", i, err)
			}
			ms[i] = m
			return nil
		},
		func(i int) error {
			agg.AddReplication(ms[i])
			return nil
		})
	if err != nil {
		return nil, err
	}
	return agg, nil
}

// ResolveFrameParallel resolves a run's FrameParallel under an outer
// fan-out of the given width: a config on the auto setting (0), in either
// frame mode, runs its frames inline when fanout > 1 rather than stacking a
// second GOMAXPROCS-wide pool per engine onto already-saturated CPUs, and
// keeps the auto pool for a single run. Explicit worker counts are always
// honoured, and the choice never affects the results (the output is
// byte-identical for any worker count). RunReplications and sweep.Stream
// both apply this.
func ResolveFrameParallel(cfg Config, fanout int) int {
	if fanout > 1 && cfg.FrameParallel == 0 {
		return 1
	}
	return cfg.FrameParallel
}

// CompareSchedulers runs the same scenario (same seeds, so common random
// numbers) once per scheduler kind and returns the aggregates keyed by the
// scheduler kind, preserving the requested order.
func CompareSchedulers(ctx context.Context, cfg Config, kinds []SchedulerKind, reps int) (map[SchedulerKind]*Aggregate, error) {
	out := make(map[SchedulerKind]*Aggregate, len(kinds))
	for _, k := range kinds {
		c := cfg
		c.Scheduler = k
		agg, err := RunReplications(ctx, c, reps)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			return nil, fmt.Errorf("sim: scheduler %s: %w", k, err)
		}
		out[k] = agg
	}
	return out, nil
}
