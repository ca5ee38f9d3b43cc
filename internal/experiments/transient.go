package experiments

import (
	"context"
	"fmt"

	"jabasd/internal/fault"
	"jabasd/internal/report"
	"jabasd/internal/sim"
	"jabasd/internal/trace"
)

// The transient experiments E11 and E12 look at the admission dynamics the
// end-of-replication aggregates average away: how long the system takes to
// reach steady state from its empty start (E11) and how it responds to a
// mid-run step in the offered load (E12). Both run the dynamic simulator
// with frame-level telemetry (internal/trace) from t = 0 — warm-up
// included, since warm-up is the object of study — and reduce the
// per-frame, per-cell records to fixed time windows.

// transientWindows is the number of time windows the trace is reduced to;
// the window width is SimTime/transientWindows, so the tables have the same
// shape at every scale.
const transientWindows = 10

// windowAcc accumulates the trace records falling in one time window.
type windowAcc struct {
	offered, admitted, completed int
	delaySum                     float64
	loadSum, queueSum            float64
	down, spill                  int // out-of-service cell-frames, spillover hand-offs
	samples                      int // (frame, cell) records seen
}

// accumulateWindows reduces one replication's trace to the per-window
// accumulators. Records beyond the last window boundary (there are none as
// long as windowSec divides SimTime, but guard anyway) land in the last one.
func accumulateWindows(acc []windowAcc, records []trace.Record, windowSec float64) {
	for _, r := range records {
		w := int(r.TimeS / windowSec)
		if w >= len(acc) {
			w = len(acc) - 1
		}
		a := &acc[w]
		a.offered += r.Offered
		a.admitted += r.Admitted
		a.completed += r.Completed
		a.delaySum += r.DelaySumS
		a.loadSum += r.Load
		a.queueSum += float64(r.QueueLen)
		a.down += r.Down
		a.spill += r.Spill
		a.samples++
	}
}

// transientReps normalises a scale's replication count for the transient
// experiments: both the runner and the per-row rate normalisation must use
// the same clamped value, or a zero-replication Scale would divide by zero.
func transientReps(s Scale) int {
	if s.Replications < 1 {
		return 1
	}
	return s.Replications
}

// runTransient runs reps traced replications of cfg (seeds cfg.Seed + i)
// and returns the across-replication window accumulators. Each replication
// needs its own in-memory sink, so they go to sim.Replicate as reps
// configurations of one replication each, one at a time: the transient
// experiments are already parallelised across each other by the registry
// runner. reps must be >= 1 (transientReps).
func runTransient(ctx context.Context, cfg sim.Config, reps int, windowSec float64) ([]windowAcc, error) {
	cfgs := make([]sim.Config, reps)
	mems := make([]*trace.Memory, reps)
	for i := range cfgs {
		mems[i] = &trace.Memory{}
		cfgs[i] = cfg
		cfgs[i].Seed = cfg.Seed + uint64(i)
		cfgs[i].Trace = mems[i]
		cfgs[i].TraceEvery = 1
	}
	acc := make([]windowAcc, transientWindows)
	err := sim.Replicate(ctx, cfgs, 1, 1, func(i int, _ *sim.Aggregate) error {
		accumulateWindows(acc, mems[i].Records, windowSec)
		mems[i].Records = nil // release the replication's trace
		return nil
	})
	if err != nil {
		return nil, err
	}
	return acc, nil
}

// addTransientRow appends one window's row: per-cell per-second rates for
// the counters, per-cell means for load and queue, and the window's mean
// burst delay.
func addTransientRow(t *report.Table, a windowAcc, tStart, windowSec float64, cells, reps int, extra ...interface{}) {
	norm := float64(cells*reps) * windowSec
	meanDelay := 0.0
	if a.completed > 0 {
		meanDelay = a.delaySum / float64(a.completed)
	}
	meanLoad, meanQueue := 0.0, 0.0
	if a.samples > 0 {
		meanLoad = a.loadSum / float64(a.samples)
		meanQueue = a.queueSum / float64(a.samples)
	}
	row := append([]interface{}{}, extra...)
	row = append(row, tStart,
		float64(a.offered)/norm, float64(a.admitted)/norm, float64(a.completed)/norm,
		meanLoad, meanQueue, meanDelay)
	t.AddRow(row...)
}

// E11WarmupConvergence starts the baseline heavy-traffic scenario from its
// empty initial state and tabulates the admission dynamics in
// transientWindows time windows: offered/admitted/completed burst rates,
// mean cell load, mean queue length and mean burst delay per window. The
// early windows show the fill-in transient (light queues, generous grants),
// the later ones the congested steady state — the picture that justifies
// discarding a warm-up period in every steady-state experiment.
func E11WarmupConvergence(ctx context.Context, s Scale) (*report.Table, error) {
	cfg := baseConfig(s)
	cfg.WarmupTime = 0
	cfg.DataUsersPerCell = 14
	windowSec := cfg.SimTime / transientWindows
	reps := transientReps(s)
	acc, err := runTransient(ctx, cfg, reps, windowSec)
	if err != nil {
		return nil, err
	}
	cells := cellCount(cfg)
	t := report.NewTable("E11: warm-up and convergence of the admission dynamics ("+s.Name+" scale)",
		"t_start_s", "offered_per_cell_s", "admitted_per_cell_s", "completed_per_cell_s",
		"mean_cell_load", "mean_queue_len", "mean_delay_s")
	for w, a := range acc {
		addTransientRow(t, a, float64(w)*windowSec, windowSec, cells, reps)
	}
	return t, nil
}

// E12LoadStepResponse starts the scenario lightly loaded (long reading
// times) and halfway through steps every data source to a 1-second mean
// reading time — a flash crowd arriving — as a one-event fault.Schedule
// load curve.
// The windowed table shows the step response of the admission layer: the
// offered rate jumps at the step, the admitted rate follows until the power
// budget saturates, and the queues and delays grow toward the new, heavier
// steady state.
func E12LoadStepResponse(ctx context.Context, s Scale) (*report.Table, error) {
	cfg := baseConfig(s)
	cfg.WarmupTime = 0
	cfg.DataUsersPerCell = 14
	cfg.Data.MeanReadingTimeSec = 12 // light offered load before the step
	stepAt := cfg.SimTime / 2
	cfg.Faults = &fault.Schedule{Load: []fault.LoadEvent{{AtSec: stepAt, ReadingTimeSec: 1}}}
	windowSec := cfg.SimTime / transientWindows
	reps := transientReps(s)
	acc, err := runTransient(ctx, cfg, reps, windowSec)
	if err != nil {
		return nil, err
	}
	cells := cellCount(cfg)
	t := report.NewTable(
		fmt.Sprintf("E12: offered-load step response at t=%.0f s (%s scale)", stepAt, s.Name),
		"phase", "t_start_s", "offered_per_cell_s", "admitted_per_cell_s", "completed_per_cell_s",
		"mean_cell_load", "mean_queue_len", "mean_delay_s")
	for w, a := range acc {
		tStart := float64(w) * windowSec
		phase := "pre-step"
		if tStart >= stepAt {
			phase = "post-step"
		}
		addTransientRow(t, a, tStart, windowSec, cells, reps, phase)
	}
	return t, nil
}

// cellCount returns the number of cells cfg's hexagonal layout will have:
// 1 + 3r(r+1) for r rings (spelled as arithmetic rather than instantiating
// a cellular.Layout just for this).
func cellCount(cfg sim.Config) int {
	r := cfg.Rings
	return 1 + 3*r*(r+1)
}
