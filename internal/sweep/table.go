package sweep

import (
	"fmt"

	"jabasd/internal/report"
	"jabasd/internal/sim"
)

// resultColumn is one column of the result schema: its name and its value
// in a replicated result.
type resultColumn struct {
	name  string
	value func(a *sim.Aggregate) any
}

// resultColumns is the one result schema every replicated result renders
// from — the sweep table, the server's run and sweep jobs and jabasim
// -reps N: the headline metrics with their across-replication 95%
// confidence half-widths. Admission probability is the completed/generated
// burst ratio, outage is one minus the coverage fraction (bursts whose
// served rate met the coverage target).
var resultColumns = []resultColumn{
	{"reps", func(a *sim.Aggregate) any { return a.Replications }},
	{"admission_prob", func(a *sim.Aggregate) any { return a.CompletionRate.Mean() }},
	{"admission_ci95", func(a *sim.Aggregate) any { return a.CompletionRate.ConfidenceInterval95() }},
	{"tput_cell_bps", func(a *sim.Aggregate) any { return a.Throughput.Mean() }},
	{"tput_ci95", func(a *sim.Aggregate) any { return a.Throughput.ConfidenceInterval95() }},
	{"outage", func(a *sim.Aggregate) any { return 1 - a.Coverage.Mean() }},
	{"outage_ci95", func(a *sim.Aggregate) any { return a.Coverage.ConfidenceInterval95() }},
	{"mean_delay_s", func(a *sim.Aggregate) any { return a.MeanDelay.Mean() }},
	{"delay_ci95", func(a *sim.Aggregate) any { return a.MeanDelay.ConfidenceInterval95() }},
	{"p90_delay_s", func(a *sim.Aggregate) any { return a.P90Delay.Mean() }},
	{"cell_load", func(a *sim.Aggregate) any { return a.CellLoad.Mean() }},
}

// Warnings words the result-quality flags a replicated result can carry,
// each as a mean per replication: skipped admission cell-frames
// (inconsistent measurements) and greedy fallback solves (the exact solver
// hit its node budget). The CLIs print them and the server attaches them
// to the job status.
func Warnings(a *sim.Aggregate) []string {
	var w []string
	if n := a.SkippedCells.Mean(); n > 0 {
		w = append(w, fmt.Sprintf("admission skipped %g cell-frames per replication: the scenario is feeding the admission layer inconsistent measurements", n))
	}
	if n := a.FallbackSolves.Mean(); n > 0 {
		w = append(w, fmt.Sprintf("%g cell-frames per replication hit the solve node budget and were granted by the greedy fallback", n))
	}
	return w
}

// NewCurveTable creates the empty paper-style curve table for a grid: the
// axis values as leading columns, then the result columns.
func NewCurveTable(g Grid) *report.Table {
	title := "parameter sweep"
	if g.Name != "" {
		title = "sweep " + g.Name
	}
	switch {
	case g.Preset != "":
		title += " (preset " + g.Preset + ")"
	case g.Base != nil:
		title += " (config)"
	default:
		title += " (preset baseline)"
	}
	cols := make([]string, 0, len(g.Axes)+len(resultColumns))
	for _, ax := range g.Axes {
		cols = append(cols, ax.Name)
	}
	for _, c := range resultColumns {
		cols = append(cols, c.name)
	}
	return report.NewTable(title, cols...)
}

// AppendCurveRow appends one result's row to a table made by NewCurveTable
// and returns the formatted cells, so streaming callers can emit the row as
// soon as its point completes.
func AppendCurveRow(tbl *report.Table, r Result) []string {
	row := make([]any, 0, len(tbl.Columns))
	for _, v := range r.Values {
		row = append(row, v.Value)
	}
	for _, c := range resultColumns {
		row = append(row, c.value(r.Agg))
	}
	tbl.AddRow(row...)
	return tbl.Rows[len(tbl.Rows)-1]
}
