package sweep

import "jabasd/internal/report"

// NewCurveTable creates the empty paper-style curve table for a grid: the
// axis values as leading columns, then the headline metrics with their
// across-replication 95% confidence half-widths. Admission probability is
// the completed/generated burst ratio, outage is one minus the coverage
// fraction (bursts whose served rate met the coverage target).
func NewCurveTable(g Grid) *report.Table {
	title := "parameter sweep"
	if g.Name != "" {
		title = "sweep " + g.Name
	}
	preset := g.Preset
	if preset == "" {
		preset = "baseline"
	}
	title += " (preset " + preset + ")"

	cols := make([]string, 0, len(g.Axes)+11)
	for _, ax := range g.Axes {
		cols = append(cols, ax.Name)
	}
	cols = append(cols,
		"reps",
		"admission_prob", "admission_ci95",
		"tput_cell_bps", "tput_ci95",
		"outage", "outage_ci95",
		"mean_delay_s", "delay_ci95",
		"p90_delay_s", "cell_load",
	)
	return report.NewTable(title, cols...)
}

// AppendCurveRow appends one result's row to a table made by NewCurveTable
// and returns the formatted cells, so streaming callers can emit the row as
// soon as its point completes.
func AppendCurveRow(tbl *report.Table, r Result) []string {
	row := make([]interface{}, 0, len(tbl.Columns))
	for _, v := range r.Values {
		row = append(row, v.Value)
	}
	row = append(row,
		r.Agg.Replications,
		r.Agg.CompletionRate.Mean(), r.Agg.CompletionRate.ConfidenceInterval95(),
		r.Agg.Throughput.Mean(), r.Agg.Throughput.ConfidenceInterval95(),
		1-r.Agg.Coverage.Mean(), r.Agg.Coverage.ConfidenceInterval95(),
		r.Agg.MeanDelay.Mean(), r.Agg.MeanDelay.ConfidenceInterval95(),
		r.Agg.P90Delay.Mean(), r.Agg.CellLoad.Mean(),
	)
	tbl.AddRow(row...)
	return tbl.Rows[len(tbl.Rows)-1]
}
