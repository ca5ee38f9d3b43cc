package experiments

import (
	"context"
	"fmt"

	"jabasd/internal/fault"
	"jabasd/internal/report"
	"jabasd/internal/sim"
	"jabasd/internal/trace"
)

// The transient experiments E11-E14 look at the admission dynamics the
// end-of-replication aggregates average away: how long the system takes to
// reach steady state from its empty start (E11), how it responds to a
// mid-run step in the offered load (E12), how the load spills to the
// neighbours of a cell taken out of service and settles back on recovery
// (E13), and how it rides a flash-crowd load curve (E14). E12-E14 drive the
// engine's fault-injection layer (internal/fault). All four run the dynamic
// simulator with frame-level telemetry (internal/trace) from t = 0 —
// warm-up included, since warm-up is the object of study — and reduce the
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

// phase names the windows starting at or after from, up to the next phase;
// a table's first phase starts at 0.
type phase struct {
	name string
	from float64
}

// transientConfig is the scenario every transient experiment starts from:
// the congested baseline, traced from its empty start.
func transientConfig(s Scale) sim.Config {
	cfg := baseConfig(s)
	cfg.WarmupTime = 0
	cfg.DataUsersPerCell = 14
	return cfg
}

// transient runs the scale's replications of cfg traced (seeds cfg.Seed +
// i) and tabulates the windows: per-cell per-second rates for the
// counters, per-cell means for load and queue, and the mean burst delay.
// Each replication needs its own in-memory sink, so each goes to
// sim.Replicate as a configuration of one replication, reduced in order; a
// transient run is never reused, since its output is the trace. phases, in
// time order, label each window with the last one it has reached (none: no
// phase column); outage appends the out-of-service cell-frames and
// spillover hand-offs per replication. The title gets the scale's name.
func transient(ctx context.Context, s Scale, title string, cfg sim.Config, phases []phase, outage bool) (*report.Table, error) {
	reps := s.replications()
	windowSec := cfg.SimTime / transientWindows
	cfgs := make([]sim.Config, reps)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed += uint64(i)
		cfgs[i].Trace, cfgs[i].TraceEvery = &trace.Memory{}, 1
	}
	acc := make([]windowAcc, transientWindows)
	err := replicateRuns(ctx, cfgs, 1, s.parallel, func(i int, _ *sim.Aggregate) error {
		mem := cfgs[i].Trace.(*trace.Memory)
		accumulateWindows(acc, mem.Records, windowSec)
		mem.Records = nil // release the replication's trace
		return nil
	})
	if err != nil {
		return nil, err
	}

	headers := []string{"t_start_s", "offered_per_cell_s", "admitted_per_cell_s", "completed_per_cell_s",
		"mean_cell_load", "mean_queue_len", "mean_delay_s"}
	if len(phases) > 0 {
		headers = append([]string{"phase"}, headers...)
	}
	if outage {
		headers = append(headers, "down_cell_frames", "spillover_handoffs")
	}
	t := report.NewTable(title+" ("+s.Name+" scale)", headers...)
	cells := 1 + 3*cfg.Rings*(cfg.Rings+1) // the hexagonal layout's cell count
	norm := float64(cells*reps) * windowSec
	for w, a := range acc {
		tStart := float64(w) * windowSec
		var row []any // leads with the label of the last phase reached, if any
		for _, p := range phases {
			if tStart >= p.from {
				row = append(row[:0], p.name)
			}
		}
		meanDelay, meanLoad, meanQueue := 0.0, 0.0, 0.0
		if a.completed > 0 {
			meanDelay = a.delaySum / float64(a.completed)
		}
		if a.samples > 0 {
			meanLoad, meanQueue = a.loadSum/float64(a.samples), a.queueSum/float64(a.samples)
		}
		row = append(row, tStart,
			float64(a.offered)/norm, float64(a.admitted)/norm, float64(a.completed)/norm,
			meanLoad, meanQueue, meanDelay)
		if outage {
			row = append(row, float64(a.down)/float64(reps), float64(a.spill)/float64(reps))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// e11WarmupConvergence starts the baseline heavy-traffic scenario from its
// empty initial state and tabulates the admission dynamics in
// transientWindows time windows: offered/admitted/completed burst rates,
// mean cell load, mean queue length and mean burst delay per window. The
// early windows show the fill-in transient (light queues, generous grants),
// the later ones the congested steady state — the picture that justifies
// discarding a warm-up period in every steady-state experiment.
func e11WarmupConvergence(ctx context.Context, s Scale) (*report.Table, error) {
	return transient(ctx, s, "E11: warm-up and convergence of the admission dynamics", transientConfig(s), nil, false)
}

// e12LoadStepResponse starts the scenario lightly loaded (long reading
// times) and halfway through steps every data source to a 1-second mean
// reading time — a flash crowd arriving — as a one-event fault.Schedule
// load curve.
// The windowed table shows the step response of the admission layer: the
// offered rate jumps at the step, the admitted rate follows until the power
// budget saturates, and the queues and delays grow toward the new, heavier
// steady state.
func e12LoadStepResponse(ctx context.Context, s Scale) (*report.Table, error) {
	cfg := transientConfig(s)
	cfg.Data.MeanReadingTimeSec = 12 // light offered load before the step
	stepAt := cfg.SimTime / 2
	cfg.Faults = &fault.Schedule{Load: []fault.LoadEvent{{AtSec: stepAt, ReadingTimeSec: 1}}}
	return transient(ctx, s, fmt.Sprintf("E12: offered-load step response at t=%.0f s", stepAt), cfg,
		[]phase{{"pre-step", 0}, {"post-step", stepAt}}, false)
}

// e13CellOutageSpillover runs the congested baseline with the centre cell
// out of service for the middle fifth of the run. The windowed table shows
// the outage transient: admitted rate dips when the cell goes dark, its
// queued requests and re-piloting users spill onto the first ring
// (spillover_handoffs), neighbour load rises, and after recovery the system
// settles back to the pre-outage steady state. down_cell_frames counts the
// out-of-service (cell, frame) pairs per window, so the outage span is
// visible in the table itself.
func e13CellOutageSpillover(ctx context.Context, s Scale) (*report.Table, error) {
	cfg := transientConfig(s)
	outStart, outEnd := 0.4*cfg.SimTime, 0.6*cfg.SimTime
	cfg.Faults = &fault.Schedule{Cells: []fault.CellEvent{
		{Cell: 0, StartSec: outStart, EndSec: outEnd},
	}}
	return transient(ctx, s, fmt.Sprintf("E13: centre-cell outage t=%.0f..%.0f s — spillover and recovery", outStart, outEnd), cfg,
		[]phase{{"pre-outage", 0}, {"outage", outStart}, {"recovered", outEnd}}, true)
}

// e14FlashCrowdCurve drives the scenario through a piecewise load curve:
// lightly loaded at the start, the mean reading time quarters at 0.35
// SimTime (a flash crowd arriving) and restores at 0.7 SimTime (the crowd
// leaving). Where E12 shows the response to a single permanent step, E14
// shows both edges — the ramp into saturation and the drain back out — as
// the fault layer's load events fire in sequence.
func e14FlashCrowdCurve(ctx context.Context, s Scale) (*report.Table, error) {
	cfg := transientConfig(s)
	cfg.Data.MeanReadingTimeSec = 12 // light offered load outside the crowd
	crowdAt, crowdEnd := 0.35*cfg.SimTime, 0.7*cfg.SimTime
	cfg.Faults = &fault.Schedule{Load: []fault.LoadEvent{
		{AtSec: crowdAt, ReadingTimeSec: cfg.Data.MeanReadingTimeSec / 4},
		{AtSec: crowdEnd, ReadingTimeSec: cfg.Data.MeanReadingTimeSec},
	}}
	return transient(ctx, s, fmt.Sprintf("E14: flash-crowd load curve t=%.0f..%.0f s", crowdAt, crowdEnd), cfg,
		[]phase{{"pre-crowd", 0}, {"crowd", crowdAt}, {"drained", crowdEnd}}, false)
}
