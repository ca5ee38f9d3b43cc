package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"testing"

	"jabasd/internal/report"
)

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", s, err)
	}
	return v
}

// tinyScale keeps the dynamic-simulation experiments fast in unit tests.
var tinyScale = Scale{
	Name:         "tiny",
	SimTime:      5,
	WarmupTime:   1,
	Rings:        1,
	Replications: 1,
	LoadPoints:   []int{3, 8},
}

func TestE1AdaptivePhyThroughput(t *testing.T) {
	tbl, err := e1AdaptivePhyThroughput(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() < 10 {
		t.Fatalf("too few rows: %d", tbl.NumRows())
	}
	if err := sanityCheckE1(tbl); err != nil {
		t.Error(err)
	}
	// The adaptive PHY must dominate both fixed modes in every row.
	for _, row := range tbl.Rows {
		adaptive := parseFloat(t, row[1])
		f2 := parseFloat(t, row[2])
		f5 := parseFloat(t, row[3])
		outage := parseFloat(t, row[4])
		if adaptive+1e-9 < f2 || adaptive+1e-9 < f5 {
			t.Errorf("adaptive %v below a fixed mode (%v, %v)", adaptive, f2, f5)
		}
		if outage < 0 || outage > 1 {
			t.Errorf("outage out of range: %v", outage)
		}
	}
}

func TestE2ModeOccupancy(t *testing.T) {
	tbl, err := e2ModeOccupancy(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 7 { // mode 0 (outage) + 6 modes
		t.Fatalf("rows = %d, want 7", tbl.NumRows())
	}
	// Empirical and analytic fractions must each sum to ~1 and agree within
	// a few percentage points.
	sumEmp, sumAna := 0.0, 0.0
	for _, row := range tbl.Rows {
		emp := parseFloat(t, row[2])
		ana := parseFloat(t, row[3])
		sumEmp += emp
		sumAna += ana
		if diff := emp - ana; diff > 0.03 || diff < -0.03 {
			t.Errorf("mode %s: empirical %v vs analytic %v differ too much", row[0], emp, ana)
		}
	}
	if sumEmp < 0.999 || sumEmp > 1.001 || sumAna < 0.999 || sumAna > 1.001 {
		t.Errorf("fractions do not sum to 1: %v %v", sumEmp, sumAna)
	}
}

func TestE3ForwardAdmission(t *testing.T) {
	tbl, err := e3ForwardAdmission(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tbl.Rows {
		jaba := parseFloat(t, row[1])
		fcfs := parseFloat(t, row[3])
		equal := parseFloat(t, row[4])
		if jaba < 0.999 || jaba > 1.001 {
			t.Errorf("JABA-SD should match the exhaustive optimum, got ratio %v", jaba)
		}
		if fcfs > jaba+1e-6 || equal > jaba+1e-6 {
			t.Errorf("a baseline exceeded the optimum: fcfs=%v equal=%v", fcfs, equal)
		}
	}
}

func TestE4ReverseAdmission(t *testing.T) {
	tbl, err := e4ReverseAdmission(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 schedulers", tbl.NumRows())
	}
	for _, row := range tbl.Rows {
		violations := parseFloat(t, row[3])
		if violations != 0 {
			t.Errorf("%s violated the interference budget %v times", row[0], violations)
		}
		use := parseFloat(t, row[2])
		if use < 0 || use > 1.0001 {
			t.Errorf("budget use out of range: %v", use)
		}
	}
}

func TestE5DelayVsLoadQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation experiment skipped in -short mode")
	}
	tbl, err := e5DelayVsLoad(context.Background(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	// 2 load points x 3 schedulers.
	if tbl.NumRows() != 6 {
		t.Fatalf("rows = %d, want 6", tbl.NumRows())
	}
	for _, row := range tbl.Rows {
		if d := parseFloat(t, row[2]); d < 0 {
			t.Errorf("negative delay %v", d)
		}
		if tput := parseFloat(t, row[5]); tput < 0 {
			t.Errorf("negative throughput %v", tput)
		}
		if comp := parseFloat(t, row[7]); comp < 0 || comp > 1 {
			t.Errorf("completion ratio out of range: %v", comp)
		}
	}
}

func TestE8JointDesignAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation experiment skipped in -short mode")
	}
	tbl, err := e8JointDesignAblation(context.Background(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 (2x2 design)", tbl.NumRows())
	}
}

func TestE9E10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation experiment skipped in -short mode")
	}
	small := tinyScale
	small.LoadPoints = []int{3}
	if tbl, err := e9ObjectiveTradeoff(context.Background(), small); err != nil || tbl.NumRows() != 4 {
		t.Fatalf("E9: %v rows=%v", err, tbl)
	}
	if tbl, err := e10MacStates(context.Background(), small); err != nil || tbl.NumRows() != 3 {
		t.Fatalf("E10: %v rows=%v", err, tbl)
	}
}

func TestE6E7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation experiment skipped in -short mode")
	}
	small := tinyScale
	small.LoadPoints = []int{3}
	tbl, err := e6UserCapacity(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("E6 rows = %d", tbl.NumRows())
	}
	tbl7, err := e7Coverage(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if tbl7.NumRows() != 6 {
		t.Fatalf("E7 rows = %d", tbl7.NumRows())
	}
	for _, row := range tbl7.Rows {
		cov := parseFloat(t, row[2])
		if cov < 0 || cov > 1 {
			t.Errorf("coverage out of range: %v", cov)
		}
	}
}

func TestScaleInstances(t *testing.T) {
	if scaleInstances(Full) <= scaleInstances(Quick) {
		t.Error("full scale should use more instances than quick")
	}
}

// sanityCheckE1 verifies the monotonicity property that makes E1 meaningful:
// the adaptive throughput never decreases with the CSI and
// never falls below either fixed mode.
func sanityCheckE1(t *report.Table) error {
	prev := math.Inf(-1)
	for _, row := range t.Rows {
		var adaptive float64
		if _, err := fmt.Sscanf(row[1], "%g", &adaptive); err != nil {
			return err
		}
		if adaptive < prev-1e-9 {
			return fmt.Errorf("adaptive throughput decreased: %v after %v", adaptive, prev)
		}
		prev = adaptive
	}
	return nil
}
