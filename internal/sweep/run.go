package sweep

import (
	"context"
	"fmt"

	"jabasd/internal/sim"
	"jabasd/internal/trace"
)

// Options controls a sweep run.
type Options struct {
	// Reps is the number of independent replications per grid point
	// (default 1). Point p starts at seed base + p*Reps and sim.Replicate
	// adds the replication index r, so results depend only on the indices.
	Reps int
	// Parallel is the sweep's CPU budget (<= 0 means GOMAXPROCS): at most
	// that many (point × replication) runs are in flight at once, and a
	// point on auto frame workers gets its share of the budget
	// (sim.FrameWorkers). It never affects the results.
	Parallel int
	// BaseSeed overrides the preset's base seed when non-zero.
	BaseSeed uint64
	// Mutate, when set, is applied to every point's configuration before
	// seeding and running — CI and tests use it to shrink simulated time.
	Mutate func(*sim.Config)
	// Trace, when set, is called once per expanded point (in grid order,
	// before any point runs) and returns the telemetry sink of that point,
	// or nil for no trace; sim.Replicate gives it to replication 0 only.
	// Each point needs its own sink — points run concurrently and a
	// trace.Sink is single-writer; a point's sink is complete once Stream
	// emits the point. TraceEvery is the sampling period in frames (0/1 =
	// every frame) for every traced point.
	Trace      func(p Point) trace.Sink
	TraceEvery int
}

// Result is one completed grid point: the point plus the across-replication
// aggregate (one observation per replication, CIs via internal/stats).
type Result struct {
	Point
	Agg *sim.Aggregate
}

// Stream expands the grid into points and runs their replications through
// sim.Replicate, which fans the (point × replication) runs out over at most
// opts.Parallel workers and owns the seed, trace and frame-pool rules.
// Stream calls emit once per point, in grid order, as soon as the point's
// replications and every earlier point have finished. Emitting
// incrementally means a failure late in a long sweep keeps everything
// completed before it. For a fixed base seed the emitted results are
// identical regardless of opts.Parallel.
//
// Cancelling the context stops the sweep promptly: in-flight replications
// notice it at their next frame boundary, queued runs never start, and
// Stream returns the context's error after the workers drain. Points
// already emitted stay emitted.
func Stream(ctx context.Context, g Grid, opts Options, emit func(Result) error) error {
	points, err := g.Points()
	if err != nil {
		return err
	}
	reps := opts.Reps
	if reps <= 0 {
		reps = 1
	}

	// Freeze every point's final configuration (mutation + seed) up front so
	// the runs are pure functions of their indices.
	cfgs := make([]sim.Config, len(points))
	for i, p := range points {
		cfg := p.Config
		if opts.Mutate != nil {
			opts.Mutate(&cfg)
		}
		if opts.BaseSeed != 0 {
			cfg.Seed = opts.BaseSeed
		}
		cfg.Seed += uint64(i) * uint64(reps)
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("sweep: point %d (%s): %w", i, p.Label(), err)
		}
		points[i].Config = cfg
		if opts.Trace != nil {
			if sink := opts.Trace(points[i]); sink != nil {
				cfg.Trace = sink
				cfg.TraceEvery = opts.TraceEvery
			}
		}
		cfgs[i] = cfg
	}
	return sim.Replicate(ctx, cfgs, reps, opts.Parallel, func(i int, agg *sim.Aggregate) error {
		return emit(Result{Point: points[i], Agg: agg})
	})
}
