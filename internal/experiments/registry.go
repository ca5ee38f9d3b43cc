package experiments

import (
	"context"
	"fmt"
	"strings"

	"jabasd/internal/report"
	"jabasd/internal/sim"
)

// Experiment is one entry of the registered suite: a stable id, the
// paper-facing title, and the generator that produces its results table at a
// given scale. Every generator is deterministic — the seeds are fixed inside
// (experiment-local rng sources, sim.Config.Seed per replication) — so the
// tables are identical no matter how many runs are in flight.
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

// StreamExperiments runs the given experiments one after another, in input
// order, and calls emit with each table as soon as it is done, so a caller
// that prints or persists results in emit keeps everything that completed
// before a failure. The only fan-out is each experiment's sim.Replicate
// call, with parallel (<= 0 means GOMAXPROCS) as its CPU budget. A
// steady-state row whose scenario an earlier row of the call ran reuses
// that aggregate, so each distinct configuration runs once.
func StreamExperiments(ctx context.Context, defs []Experiment, s Scale, parallel int, emit func(i int, tbl *report.Table) error) error {
	s.parallel, s.done = parallel, map[string]*sim.Aggregate{}
	for i, d := range defs {
		tbl, err := d.Run(ctx, s)
		if ctx.Err() != nil {
			return ctx.Err() // cancelled: nothing from here on is emitted
		}
		if err != nil {
			return fmt.Errorf("experiment %s failed: %w", d.ID, err)
		}
		if err := emit(i, tbl); err != nil {
			return err
		}
	}
	return nil
}
