package sim

import (
	"context"
	"math"
	"strings"
	"testing"
)

// The Metrics accessors divide by observation counts; these tests pin the
// zero-observation paths (empty replications, zero admitted bursts, empty
// delay sample) to well-defined zeros instead of NaN/Inf, because the
// report tables and the sweep CSVs print them verbatim.

func TestMetricsAccessorsOnZeroValue(t *testing.T) {
	m := &Metrics{}
	for name, got := range map[string]float64{
		"MeanBurstDelay":    m.MeanBurstDelay(),
		"P90BurstDelay":     m.P90BurstDelay(),
		"ThroughputPerCell": m.ThroughputPerCell(),
		"CompletionRatio":   m.CompletionRatio(),
		"Coverage":          m.Coverage(),
	} {
		if got != 0 {
			t.Errorf("%s on the zero Metrics = %v, want 0", name, got)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s on the zero Metrics is not finite: %v", name, got)
		}
	}
	if s := m.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("zero Metrics prints non-finite values: %s", s)
	}
}

func TestMetricsZeroCompletions(t *testing.T) {
	// Bursts were generated but none admitted or completed: ratios stay 0,
	// they do not blow up.
	m := &Metrics{BurstsGenerated: 12, Cells: 7, ObservedTime: 30}
	if got := m.CompletionRatio(); got != 0 {
		t.Errorf("CompletionRatio = %v, want 0", got)
	}
	if got := m.Coverage(); got != 0 {
		t.Errorf("Coverage with zero completed = %v, want 0", got)
	}
	if got := m.ThroughputPerCell(); got != 0 {
		t.Errorf("ThroughputPerCell with zero bits = %v, want 0", got)
	}
	if got := m.P90BurstDelay(); got != 0 {
		t.Errorf("P90BurstDelay on the empty histogram = %v, want 0", got)
	}
}

func TestMetricsThroughputGuards(t *testing.T) {
	// Zero observed time and zero cells each individually guard the division.
	m := &Metrics{BitsDelivered: 1e6, ObservedTime: 0, Cells: 7}
	if got := m.ThroughputPerCell(); got != 0 {
		t.Errorf("zero ObservedTime: ThroughputPerCell = %v, want 0", got)
	}
	m = &Metrics{BitsDelivered: 1e6, ObservedTime: 10, Cells: 0}
	if got := m.ThroughputPerCell(); got != 0 {
		t.Errorf("zero Cells: ThroughputPerCell = %v, want 0", got)
	}
}

func TestAggregateZeroReplications(t *testing.T) {
	a := &Aggregate{}
	if a.Replications != 0 {
		t.Fatal("zero value should have no replications")
	}
	for name, got := range map[string]float64{
		"MeanDelay":  a.MeanDelay.Mean(),
		"CI95":       a.MeanDelay.ConfidenceInterval95(),
		"P90Delay":   a.P90Delay.Mean(),
		"Throughput": a.Throughput.Mean(),
		"Coverage":   a.Coverage.Mean(),
		"CellLoad":   a.CellLoad.Mean(),
	} {
		if got != 0 || math.IsNaN(got) {
			t.Errorf("%s on the empty Aggregate = %v, want 0", name, got)
		}
	}
}

func TestAggregateFoldsZeroActivityReplication(t *testing.T) {
	// A replication with no admitted bursts at all (e.g. zero data users)
	// must fold into the aggregate without poisoning the means.
	a := &Aggregate{}
	a.AddReplication(&Metrics{Scheduler: "JABA-SD", Direction: "forward", Cells: 7})
	busy := &Metrics{Scheduler: "JABA-SD", Direction: "forward", Cells: 7,
		BurstsGenerated: 10, BurstsCompleted: 5, CoveredBursts: 5,
		BitsDelivered: 1e6, ObservedTime: 10}
	busy.BurstDelay.Add(1.5)
	a.AddReplication(busy)
	if a.Replications != 2 {
		t.Fatalf("Replications = %d, want 2", a.Replications)
	}
	if got := a.CompletionRate.Mean(); got != 0.25 {
		t.Errorf("CompletionRate mean = %v, want 0.25 (0 and 0.5 averaged)", got)
	}
	if got := a.MeanDelay.Mean(); math.IsNaN(got) {
		t.Error("MeanDelay poisoned by the idle replication")
	}
}

func TestRunZeroDataUsers(t *testing.T) {
	// End to end: a scenario that never generates a burst request exercises
	// every zero path inside a real replication.
	cfg := DefaultConfig()
	cfg.Rings = 1
	cfg.SimTime = 2
	cfg.WarmupTime = 0.5
	cfg.DataUsersPerCell = 0
	cfg.VoiceUsersPerCell = 2
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BurstsGenerated != 0 || m.BurstsCompleted != 0 {
		t.Fatalf("zero data users generated traffic: %+v", m)
	}
	for name, got := range map[string]float64{
		"CompletionRatio": m.CompletionRatio(),
		"Coverage":        m.Coverage(),
		"P90BurstDelay":   m.P90BurstDelay(),
	} {
		if got != 0 || math.IsNaN(got) {
			t.Errorf("%s = %v, want 0", name, got)
		}
	}
	if s := m.String(); strings.Contains(s, "NaN") {
		t.Errorf("metrics print NaN: %s", s)
	}
}
