package sim

import (
	"context"
	"fmt"
	"runtime"

	"jabasd/internal/stream"
)

// Replicate runs reps replications of every configuration in cfgs in one
// ordered fan-out of at most parallel runs at a time (<= 0 means
// GOMAXPROCS), and calls emit(i, agg) in input order with the aggregate of
// cfgs[i] as soon as its replications and every earlier configuration's
// have finished. It owns the replication rules: replication r of cfgs[i]
// runs with seed cfgs[i].Seed + r, so results depend only on the indices;
// replication 0 alone keeps Trace and SolveTrace, since a sink is
// single-writer; every run gets FrameWorkers(cfg, len(cfgs)*reps, parallel)
// frame workers, so parallel bounds the cores, not just the engines; and
// each replication's metrics are released once folded into the aggregate.
// Cancelling the context stops the in-flight runs at their next frame,
// skips the runs not yet started and returns the context's error.
func Replicate(ctx context.Context, cfgs []Config, reps, parallel int, emit func(i int, agg *Aggregate) error) error {
	if reps <= 0 {
		return fmt.Errorf("sim: need at least one replication, got %d", reps)
	}
	ms := make([]*Metrics, len(cfgs)*reps)
	aggs := make([]Aggregate, len(cfgs))
	return stream.Ordered(len(ms), parallel,
		func(item int) error {
			// A run that has not started yet fails fast on a cancelled
			// context instead of simulating a doomed run.
			if err := ctx.Err(); err != nil {
				return err
			}
			i, r := item/reps, item%reps
			cfg := cfgs[i]
			cfg.Seed += uint64(r)
			cfg.FrameParallel = FrameWorkers(cfg, len(ms), parallel)
			if r != 0 {
				cfg.Trace, cfg.SolveTrace = nil, nil
			}
			var err error
			ms[item], err = Run(ctx, cfg)
			if err != nil && ctx.Err() == nil { // a failure, not the cancellation
				return fmt.Errorf("sim: configuration %d replication %d: %w", i, r, err)
			}
			return err
		},
		func(item int) error {
			i := item / reps
			aggs[i].AddReplication(ms[item])
			ms[item] = nil // release the replication's samples
			if item%reps < reps-1 {
				return nil
			}
			return emit(i, &aggs[i])
		})
}

// RunReplications runs n independent replications of cfg (see Replicate)
// and returns their aggregate.
func RunReplications(ctx context.Context, cfg Config, n int) (*Aggregate, error) {
	var out *Aggregate // set only once every replication has succeeded
	err := Replicate(ctx, []Config{cfg}, n, 0, func(_ int, agg *Aggregate) error {
		out = agg
		return nil
	})
	return out, err
}

// FrameWorkers is the one rule that splits a CPU budget between engines
// and their frame pools. An explicit cfg.FrameParallel is honoured. On the
// auto setting (0) the budget is P = parallel (GOMAXPROCS when <= 0), at
// most min(P, runs) engines run at once (runs < 1 counts as 1), and each
// gets max(1, P/runs) workers, so engines times workers never exceed P: a
// lone run gets the whole budget, and P or more runs each run their frames
// inline. The count never affects the results.
func FrameWorkers(cfg Config, runs, parallel int) int {
	if cfg.FrameParallel != 0 {
		return cfg.FrameParallel
	}
	p := parallel
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return max(1, p/max(runs, 1))
}
