package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"jabasd/internal/report"
	"jabasd/internal/stream"
)

// Experiment is one entry of the registered suite: a stable id, the
// paper-facing title, and the generator that produces its results table at a
// given scale. Every generator is deterministic — the seeds are fixed inside
// (experiment-local rng sources, sim.Config.Seed per replication) — so the
// tables are identical no matter how many experiments run concurrently.
type Experiment struct {
	// ID is the stable identifier (E1..E14) used by cmd/jabaexp -only.
	ID string
	// Title summarises what the experiment reproduces.
	Title string
	// Analytic experiments compute their tables without the dynamic
	// simulator; their output is independent of the scale's simulated time
	// and replication count.
	Analytic bool
	// Run produces the results table. The context cancels the dynamic
	// simulations an experiment runs mid-flight; the analytic experiments
	// complete fast enough that they ignore it.
	Run func(context.Context, Scale) (*report.Table, error)
}

// Registry returns the ordered experiment suite E1-E14. It is the single
// source of truth that cmd/jabaexp and experiment job specs select from, so
// the two can never drift apart.
func Registry() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "adaptive physical layer throughput vs mean CSI", Analytic: true, Run: e1AdaptivePhyThroughput},
		{ID: "E2", Title: "VTAOC mode occupancy over a fading trace", Analytic: true, Run: e2ModeOccupancy},
		{ID: "E3", Title: "forward-link admission optimality vs exhaustive optimum", Analytic: true, Run: e3ForwardAdmission},
		{ID: "E4", Title: "reverse-link admission with SCRM neighbour protection", Analytic: true, Run: e4ReverseAdmission},
		{ID: "E5", Title: "average burst delay vs offered load", Run: e5DelayVsLoad},
		{ID: "E6", Title: "data user capacity at a delay target", Run: e6UserCapacity},
		{ID: "E7", Title: "coverage vs shadowing severity", Run: e7Coverage},
		{ID: "E8", Title: "joint design ablation (adaptive PHY x scheduler)", Run: e8JointDesignAblation},
		{ID: "E9", Title: "objective J1 vs J2 trade-off", Run: e9ObjectiveTradeoff},
		{ID: "E10", Title: "MAC state set-up penalty effect", Run: e10MacStates},
		{ID: "E11", Title: "transient warm-up and convergence (frame-level telemetry)", Run: e11WarmupConvergence},
		{ID: "E12", Title: "offered-load step response (mid-run flash crowd)", Run: e12LoadStepResponse},
		{ID: "E13", Title: "mid-run cell outage: spillover transient and recovery settling", Run: e13CellOutageSpillover},
		{ID: "E14", Title: "flash-crowd load curve (piecewise fault schedule)", Run: e14FlashCrowdCurve},
	}
}

// IDs returns the registered experiment ids in suite order.
func IDs() []string {
	defs := Registry()
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.ID
	}
	return out
}

// ByID looks up an experiment by id, case-insensitively.
func ByID(id string) (Experiment, bool) {
	want := strings.ToUpper(strings.TrimSpace(id))
	for _, d := range Registry() {
		if d.ID == want {
			return d, true
		}
	}
	return Experiment{}, false
}

// StreamExperiments runs the given experiments concurrently (bounded by
// parallel; <= 0 means GOMAXPROCS) and invokes emit in input order as soon
// as each experiment and all of its predecessors have finished. A caller
// that prints or persists results in emit therefore keeps everything that
// completed before a failure — important for full-scale runs where a late
// experiment dying should not discard half an hour of earlier tables. The
// first error in input order is returned after the in-flight experiments
// drain; emit is called for every experiment preceding the failure.
func StreamExperiments(ctx context.Context, defs []Experiment, s Scale, parallel int, emit func(i int, tbl *report.Table) error) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	s.fanout = min(parallel, len(defs))
	tables := make([]*report.Table, len(defs))
	return stream.Ordered(len(defs), parallel,
		func(i int) error {
			if err := ctx.Err(); err != nil {
				return err // cancelled before this experiment started
			}
			tbl, err := defs[i].Run(ctx, s)
			if err != nil {
				if ctx.Err() != nil {
					return err // the cancellation, not an experiment failure
				}
				return fmt.Errorf("experiment %s failed: %w", defs[i].ID, err)
			}
			tables[i] = tbl
			return nil
		},
		func(i int) error { return emit(i, tables[i]) })
}
