package sim

// Tests for the fault-injection layer's engine contracts: outage frames are
// byte-identical across worker counts; the outage actually silences the cell
// (no grants, only down-marked trace rows); and the counters reconcile with
// the schedule.

import (
	"context"
	"reflect"
	"testing"

	"jabasd/internal/fault"
	"jabasd/internal/trace"
)

// faultyConfig is quickConfig plus a schedule exercising all three event
// kinds: a centre-cell outage over the middle of the run, a derated
// neighbour and a flash-crowd load step with recovery.
func faultyConfig() Config {
	cfg := quickConfig()
	cfg.SimTime = 4
	cfg.DataUsersPerCell = 8 // enough contention that grants matter
	cfg.Faults = &fault.Schedule{
		Cells: []fault.CellEvent{
			{Cell: 0, StartSec: 1.5, EndSec: 2.5},
			{Cell: 2, StartSec: 1.0, EndSec: 3.0, Derate: 0.5},
		},
		Load: []fault.LoadEvent{
			{AtSec: 1.0, ReadingTimeSec: 0.5},
			{AtSec: 3.0, ReadingTimeSec: 2},
		},
	}
	return cfg
}

// TestFaultDeterminismAcrossModes extends the engine's determinism contract
// to fault frames: with an outage, a derate and load events in flight, the
// metrics and every telemetry record are exactly identical for any
// -frameparallel. The fault mask is applied on the sequential section of the
// frame and the derate flows through the frame-start ledger, so no parallel
// schedule can observe a different network.
func TestFaultDeterminismAcrossModes(t *testing.T) {
	base := faultyConfig()
	base.FrameMode = FrameSnapshot
	var wantFP [6]float64
	var wantTrace []trace.Record
	for i, par := range []int{1, 2, 3, 7} {
		cfg := base
		cfg.FrameParallel = par
		fp, rec := runTraced(t, cfg)
		if i == 0 {
			wantFP, wantTrace = fp, rec
			if fp[1] == 0 {
				t.Fatal("no bursts completed; scenario too light to test determinism")
			}
			continue
		}
		if fp != wantFP {
			t.Errorf("par=%d: metrics diverged under faults: %v vs %v", par, fp, wantFP)
		}
		if !reflect.DeepEqual(rec, wantTrace) {
			t.Errorf("par=%d: trace diverged under faults", par)
		}
	}
}

// TestFaultDeterminismExact runs the same gate on the bit-exact reference
// physics, where the paused-user refresh must not touch the Gaussian
// channel stream.
func TestFaultDeterminismExact(t *testing.T) {
	base := faultyConfig()
	base.SimTime = 3
	base.Faults = &fault.Schedule{
		Cells: []fault.CellEvent{
			{Cell: 0, StartSec: 1.0, EndSec: 2.0},
			{Cell: 2, StartSec: 0.8, EndSec: 2.4, Derate: 0.5},
		},
		Load: []fault.LoadEvent{{AtSec: 0.9, ReadingTimeSec: 0.5}},
	}
	base.FrameMode = FrameSnapshot
	base.ExactPHY = true
	var want [6]float64
	var wantTrace []trace.Record
	for i, par := range []int{1, 2, 4} {
		cfg := base
		cfg.FrameParallel = par
		fp, rec := runTraced(t, cfg)
		if i == 0 {
			want, wantTrace = fp, rec
			continue
		}
		if fp != want {
			t.Errorf("exact par=%d: metrics diverged under faults: %v vs %v", par, fp, want)
		}
		if !reflect.DeepEqual(rec, wantTrace) {
			t.Errorf("exact par=%d: trace diverged under faults", par)
		}
	}
}

// TestEmptyScheduleIsBitIdentical pins the zero-cost property: an empty
// (but non-nil) schedule and a nil one produce byte-for-byte the same run,
// because the engine drops an empty schedule at construction and every
// fault hook nil-checks before doing any work.
func TestEmptyScheduleIsBitIdentical(t *testing.T) {
	plain := quickConfig()
	plain.SimTime = 3
	fpPlain, recPlain := runTraced(t, plain)

	empty := plain
	empty.Faults = &fault.Schedule{}
	fpEmpty, recEmpty := runTraced(t, empty)

	if fpPlain != fpEmpty {
		t.Errorf("empty schedule perturbed the metrics: %v vs %v", fpEmpty, fpPlain)
	}
	if !reflect.DeepEqual(recPlain, recEmpty) {
		t.Error("empty schedule perturbed the trace")
	}
}

// TestOutageSilencesCell checks the outage semantics end to end through the
// telemetry: during the outage window the down cell admits nothing, every
// one of its rows is down-marked, and the OutageCellFrames counter equals
// the scheduled (cell, frame) count.
func TestOutageSilencesCell(t *testing.T) {
	cfg := quickConfig()
	cfg.SimTime = 4
	cfg.DataUsersPerCell = 8
	start, end := 1.5, 3.0
	cfg.Faults = &fault.Schedule{Cells: []fault.CellEvent{{Cell: 0, StartSec: start, EndSec: end}}}
	mem := &trace.Memory{}
	cfg.Trace = mem
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	downRows := 0
	for _, r := range mem.Records {
		inWindow := r.Cell == 0 && r.TimeS >= start && r.TimeS < end
		if inWindow != (r.Down == 1) {
			t.Fatalf("frame %d cell %d t=%.2f: down=%d does not match the schedule", r.Frame, r.Cell, r.TimeS, r.Down)
		}
		if r.Down == 1 {
			downRows++
			if r.Admitted != 0 {
				t.Errorf("frame %d: down cell admitted %d bursts", r.Frame, r.Admitted)
			}
			if r.Solve == trace.SolveOK {
				t.Errorf("frame %d: down cell reports a solve", r.Frame)
			}
		}
	}
	wantFrames := int((end-start)/cfg.FrameLength + 0.5)
	if downRows != wantFrames {
		t.Errorf("down-marked rows = %d, want %d", downRows, wantFrames)
	}
	if m.OutageCellFrames != int64(wantFrames) {
		t.Errorf("OutageCellFrames = %d, want %d", m.OutageCellFrames, wantFrames)
	}
	if m.BurstsCompleted == 0 {
		t.Error("nothing completed; the network did not survive the outage")
	}
}

// TestNodeBudgetFallbackDeterminism pins that the exact→greedy degradation
// is itself deterministic and observable: a tight budget yields the same
// FallbackSolves count and the same trace under any worker count, and the
// "fallback" solve status appears in the telemetry.
func TestNodeBudgetFallbackDeterminism(t *testing.T) {
	base := quickConfig()
	base.SimTime = 3
	base.DataUsersPerCell = 16
	base.SolveNodeBudget = 1
	base.FrameMode = FrameSnapshot
	var want *Metrics
	var wantTrace []trace.Record
	for i, par := range []int{1, 2, 3} {
		cfg := base
		cfg.FrameParallel = par
		mem := &trace.Memory{}
		cfg.Trace = mem
		m, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want, wantTrace = m, mem.Records
			if m.FallbackSolves == 0 {
				t.Fatal("budget of 1 node triggered no fallbacks; the scenario is too light")
			}
			seen := false
			for _, r := range mem.Records {
				if r.Solve == trace.SolveFallback {
					seen = true
					break
				}
			}
			if !seen {
				t.Error("no fallback status in the trace despite FallbackSolves > 0")
			}
			continue
		}
		if !reflect.DeepEqual(want, m) {
			t.Errorf("par=%d: metrics diverged under the node budget", par)
		}
		if !reflect.DeepEqual(wantTrace, mem.Records) {
			t.Errorf("par=%d: trace diverged under the node budget", par)
		}
	}
}
