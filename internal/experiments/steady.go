package experiments

import (
	"context"
	"fmt"

	"jabasd/internal/core"
	"jabasd/internal/report"
	"jabasd/internal/sim"
)

// The steady-state experiments E5-E10 are the paper's evaluation tables:
// end-of-replication aggregates (after warm-up) against load, shadowing,
// PHY, objective and MAC set-up penalty. Each table is a list of rows — the
// row's leading cells and the sim.Config it runs — replicated in one
// sim.Replicate fan-out and rendered through an ordered column list.

// row is one row of a steady-state table: its leading cells and the
// configuration it replicates.
type row struct {
	cells []any
	cfg   sim.Config
}

// column is one aggregate column of a steady-state table.
type column struct {
	name  string
	value func(*sim.Aggregate) float64
}

// The aggregate columns shared by several tables.
var (
	meanDelayCol  = column{"mean_delay_s", func(a *sim.Aggregate) float64 { return a.MeanDelay.Mean() }}
	p90DelayCol   = column{"p90_delay_s", func(a *sim.Aggregate) float64 { return a.P90Delay.Mean() }}
	throughputCol = column{"throughput_per_cell_bps", func(a *sim.Aggregate) float64 { return a.Throughput.Mean() }}
	coverageCol   = column{"coverage", func(a *sim.Aggregate) float64 { return a.Coverage.Mean() }}
)

// replications is the one replication rule of the dynamic experiments: a
// scale asking for none still runs one.
func (s Scale) replications() int { return max(1, s.Replications) }

// byKind crosses each value with the scheduler kinds, value-major: one row
// per (value, kind) with the value and the kind as leading cells.
func byKind[V any](s Scale, values []V, kinds []sim.SchedulerKind, set func(*sim.Config, V)) []row {
	var rows []row
	for _, v := range values {
		for _, k := range kinds {
			cfg := baseConfig(s)
			set(&cfg, v)
			cfg.Scheduler = k
			rows = append(rows, row{[]any{v, string(k)}, cfg})
		}
	}
	return rows
}

// perValue makes one row per value, with the value as the leading cell.
func perValue(s Scale, values []float64, set func(*sim.Config, float64)) []row {
	rows := make([]row, len(values))
	for i, v := range values {
		cfg := baseConfig(s)
		set(&cfg, v)
		rows[i] = row{[]any{v}, cfg}
	}
	return rows
}

var replicateRuns = sim.Replicate // the dynamic experiments' one fan-out; tests count runs here

// replicate returns the rows' aggregates in row order: a row whose scenario
// is in s.done reuses that aggregate, and the others run in one
// sim.Replicate fan-out (replication r at cfg.Seed + r) and join s.done.
func replicate(ctx context.Context, s Scale, rows []row) ([]*sim.Aggregate, error) {
	aggs := make([]*sim.Aggregate, len(rows))
	var cfgs []sim.Config
	var todo []int    // the rows to simulate, in row order
	var keys []string // their scenarios
	for i, r := range rows {
		key, err := sim.SemanticConfigJSON(r.cfg)
		if err != nil {
			return nil, err
		}
		if aggs[i] = s.done[string(key)]; aggs[i] == nil {
			cfgs, todo, keys = append(cfgs, r.cfg), append(todo, i), append(keys, string(key))
		}
	}
	err := replicateRuns(ctx, cfgs, s.replications(), s.parallel, func(j int, a *sim.Aggregate) error {
		aggs[todo[j]] = a
		if s.done != nil {
			s.done[keys[j]] = a
		}
		return nil
	})
	return aggs, err
}

// steady replicates the rows and renders them: the leading headers and
// cells, then one cell per column. The title gets the scale's name.
func steady(ctx context.Context, s Scale, title string, lead []string, rows []row, cols []column) (*report.Table, error) {
	aggs, err := replicate(ctx, s, rows)
	if err != nil {
		return nil, err
	}
	headers := append([]string{}, lead...)
	for _, c := range cols {
		headers = append(headers, c.name)
	}
	t := report.NewTable(title+" ("+s.Name+" scale)", headers...)
	for i, r := range rows {
		cells := append([]any{}, r.cells...)
		for _, c := range cols {
			cells = append(cells, c.value(aggs[i]))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// loadKinds are the schedulers E5 and E6 compare.
var loadKinds = []sim.SchedulerKind{sim.SchedulerJABASD, sim.SchedulerFCFS, sim.SchedulerEqualShare}

// loadRows are E5's and E6's rows: each of the scale's load points under
// each of loadKinds.
func loadRows(s Scale) []row {
	return byKind(s, s.LoadPoints, loadKinds, func(cfg *sim.Config, load int) { cfg.DataUsersPerCell = load })
}

// e5DelayVsLoad sweeps the number of data users per cell and reports the
// mean burst delay, 90th-percentile delay and per-cell throughput for
// JABA-SD, FCFS and equal-share under the full dynamic simulation — the
// headline dynamic-simulation claim.
func e5DelayVsLoad(ctx context.Context, s Scale) (*report.Table, error) {
	return steady(ctx, s, "E5: average burst delay vs offered load",
		[]string{"data_users_per_cell", "scheduler"}, loadRows(s), []column{
			meanDelayCol, p90DelayCol,
			{"admission_wait_s", func(a *sim.Aggregate) float64 { return a.AdmissionWait.Mean() }},
			throughputCol, coverageCol,
			{"completion", func(a *sim.Aggregate) float64 { return a.CompletionRate.Mean() }},
		})
}

const e6WaitTargetS = 2.0 // E6's mean admission wait target

// e6UserCapacity reports, for each scheduler, the largest load point from
// the scale's sweep whose mean burst admission wait (queueing before the
// first grant, the part of the delay the admission algorithm controls)
// stays below the target — the paper's "data user capacity" metric.
func e6UserCapacity(ctx context.Context, s Scale) (*report.Table, error) {
	rows := loadRows(s)
	aggs, err := replicate(ctx, s, rows)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("E6: data user capacity at mean admission wait target %.1f s (%s scale)", e6WaitTargetS, s.Name),
		"scheduler", "capacity_users_per_cell", "wait_at_capacity_s")
	capacity := map[sim.SchedulerKind]int{}
	waitAt := map[sim.SchedulerKind]float64{}
	for i, r := range rows {
		// Rows run load-major, so the last load point within the target wins.
		if w := aggs[i].AdmissionWait.Mean(); w <= e6WaitTargetS {
			capacity[r.cfg.Scheduler] = r.cfg.DataUsersPerCell
			waitAt[r.cfg.Scheduler] = w
		}
	}
	for _, k := range loadKinds {
		t.AddRow(string(k), capacity[k], waitAt[k])
	}
	return t, nil
}

// e7Coverage sweeps the shadowing standard deviation and reports the
// coverage (fraction of completed bursts served at least at the FCH rate)
// for JABA-SD and FCFS.
func e7Coverage(ctx context.Context, s Scale) (*report.Table, error) {
	kinds := []sim.SchedulerKind{sim.SchedulerJABASD, sim.SchedulerFCFS}
	rows := byKind(s, []float64{4, 8, 12}, kinds, func(cfg *sim.Config, sigma float64) { cfg.ShadowSigmaDB = sigma })
	return steady(ctx, s, "E7: coverage vs shadowing sigma",
		[]string{"shadow_sigma_dB", "scheduler"}, rows, []column{coverageCol, meanDelayCol})
}

// e8JointDesignAblation runs the 2x2 design {adaptive, fixed-rate} PHY x
// {JABA-SD, FCFS} and reports delay and throughput, demonstrating the
// paper's synergy claim: the gain of the joint design exceeds the sum of
// either component alone.
func e8JointDesignAblation(ctx context.Context, s Scale) (*report.Table, error) {
	kinds := []sim.SchedulerKind{sim.SchedulerJABASD, sim.SchedulerFCFS}
	rows := byKind(s, []string{"adaptive-vtaoc", "fixed-mode3"}, kinds, func(cfg *sim.Config, phy string) {
		cfg.UseFixedRatePHY = phy == "fixed-mode3"
		cfg.FixedRateMode = 3
	})
	return steady(ctx, s, "E8: joint design ablation",
		[]string{"phy", "scheduler"}, rows, []column{meanDelayCol, throughputCol, coverageCol})
}

// e9ObjectiveTradeoff sweeps the delay-penalty weight λ of objective J2
// (λ = 0 is J1) and reports mean delay, p90 delay and throughput under
// JABA-SD, exposing the utilisation/delay trade-off of Section 3.2.
func e9ObjectiveTradeoff(ctx context.Context, s Scale) (*report.Table, error) {
	rows := perValue(s, []float64{0, 0.05, 0.2, 0.5}, func(cfg *sim.Config, lambda float64) {
		// Run at a high load point: the delay penalty only changes decisions
		// when requests actually compete for the same frame's resources.
		cfg.DataUsersPerCell = 18
		if lambda == 0 {
			cfg.Objective = core.Objective{Kind: core.ObjectiveThroughput}
		} else {
			cfg.Objective = core.Objective{Kind: core.ObjectiveDelayAware, Lambda: lambda, RateScale: 16}
		}
	})
	return steady(ctx, s, "E9: objective J1 vs J2 trade-off",
		[]string{"lambda"}, rows, []column{meanDelayCol, p90DelayCol, throughputCol})
}

// e10MacStates sweeps the Suspended-state set-up penalty D2 (Figure 3,
// eq. 22-23) and reports the resulting mean burst delay and admission wait,
// quantifying how much the MAC state machine contributes to the overall
// packet delay.
func e10MacStates(ctx context.Context, s Scale) (*report.Table, error) {
	rows := perValue(s, []float64{0.2, 1.0, 3.0}, func(cfg *sim.Config, d2 float64) {
		// High load so that queueing pushes users past the T2/T3 timers and
		// the Suspended-state set-up penalty actually gets charged.
		cfg.DataUsersPerCell = 18
		cfg.MAC.D2 = d2
		if cfg.MAC.D1 > d2 {
			cfg.MAC.D1 = d2
		}
	})
	return steady(ctx, s, "E10: MAC set-up penalty sweep",
		[]string{"D2_seconds"}, rows, []column{
			meanDelayCol,
			{"mean_admission_wait_s", func(a *sim.Aggregate) float64 { return a.AdmissionWait.Mean() }},
		})
}
