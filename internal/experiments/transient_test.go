package experiments

import (
	"context"
	"strings"
	"testing"

	"jabasd/internal/report"
	"jabasd/internal/trace"
)

func TestE11WarmupConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation experiment skipped in -short mode")
	}
	tbl, err := e11WarmupConvergence(context.Background(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != transientWindows {
		t.Fatalf("rows = %d, want %d", tbl.NumRows(), transientWindows)
	}
	offeredTotal := 0.0
	for i, row := range tbl.Rows {
		tStart := parseFloat(t, row[0])
		want := float64(i) * tinyScale.SimTime / transientWindows
		if tStart != want {
			t.Errorf("row %d t_start = %v, want %v", i, tStart, want)
		}
		offered := parseFloat(t, row[1])
		admitted := parseFloat(t, row[2])
		load := parseFloat(t, row[4])
		if offered < 0 || admitted < 0 || load < 0 {
			t.Errorf("row %d has negative rates: %v", i, row)
		}
		offeredTotal += offered
	}
	if offeredTotal == 0 {
		t.Fatal("no offered load in any window; the scenario generated no traffic")
	}
	// The system starts empty, so the first window must carry strictly less
	// ongoing load than the heaviest later window (fill-in transient).
	first := parseFloat(t, tbl.Rows[0][4])
	maxLater := 0.0
	for _, row := range tbl.Rows[1:] {
		if l := parseFloat(t, row[4]); l > maxLater {
			maxLater = l
		}
	}
	if first >= maxLater {
		t.Errorf("no fill-in transient visible: first window load %v, max later %v", first, maxLater)
	}
}

func TestE12LoadStepResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation experiment skipped in -short mode")
	}
	tbl, err := e12LoadStepResponse(context.Background(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != transientWindows {
		t.Fatalf("rows = %d, want %d", tbl.NumRows(), transientWindows)
	}
	var pre, post float64
	var preN, postN int
	for i, row := range tbl.Rows {
		switch row[0] {
		case "pre-step":
			pre += parseFloat(t, row[2])
			preN++
		case "post-step":
			post += parseFloat(t, row[2])
			postN++
		default:
			t.Fatalf("row %d has unknown phase %q", i, row[0])
		}
	}
	if preN == 0 || postN == 0 {
		t.Fatalf("both phases must appear: pre=%d post=%d", preN, postN)
	}
	// The flash crowd must show up as a higher mean offered rate after the
	// step (column 2 is offered_per_cell_s).
	if post/float64(postN) <= pre/float64(preN) {
		t.Errorf("offered rate did not rise after the step: pre=%v post=%v",
			pre/float64(preN), post/float64(postN))
	}
}

func TestE11ZeroReplicationsScale(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation experiment skipped in -short mode")
	}
	// A zero-value Replications field must clamp to one replication in both
	// the runner and the rate normalisation — not divide by zero — and the
	// steady-state experiments follow the same rule instead of failing.
	s := tinyScale
	s.Replications = 0
	for _, run := range []func(context.Context, Scale) (*report.Table, error){e11WarmupConvergence, e10MacStates} {
		tbl, err := run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tbl.Rows {
			for _, cell := range row {
				if strings.Contains(cell, "Inf") || strings.Contains(cell, "NaN") {
					t.Fatalf("non-finite cell %q in %v", cell, row)
				}
			}
		}
	}
}

func TestAccumulateWindowsClampsOverflow(t *testing.T) {
	acc := make([]windowAcc, 2)
	accumulateWindows(acc, []trace.Record{
		{TimeS: 0.5, Offered: 1},
		{TimeS: 1.5, Offered: 2},
		{TimeS: 99, Offered: 4}, // beyond the last boundary: clamped into it
	}, 1.0)
	if acc[0].offered != 1 || acc[1].offered != 6 {
		t.Fatalf("windows = %+v", acc)
	}
}
