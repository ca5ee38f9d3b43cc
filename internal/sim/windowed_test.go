package sim

// Tests for the snapshot frame mode's trace determinism across worker
// counts and the windowed (city-scale) physics: the full-width identity of
// the window and a map wider than the merge bound.

import (
	"context"
	"reflect"
	"testing"

	"jabasd/internal/cellular"
	"jabasd/internal/channel"
	"jabasd/internal/trace"
)

// runTraced runs cfg with an in-memory trace attached and returns the
// metrics fingerprint plus the raw records.
func runTraced(t *testing.T, cfg Config) ([6]float64, []trace.Record) {
	t.Helper()
	mem := &trace.Memory{}
	cfg.Trace = mem
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(m), mem.Records
}

// TestSnapshotTraceIdenticalAcrossWorkerCounts extends
// TestSnapshotModeIdenticalAcrossWorkerCounts to the trace and the reverse
// link: every active cell is its own pool task, solved against the
// immutable frame-start ledger with its scheduler RNG reseeded per (frame,
// cell), and grants commit in cell order, so metrics AND traces are exactly
// identical for any worker count.
func TestSnapshotTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, dir := range []Direction{Forward, Reverse} {
		base := quickConfig()
		base.SimTime = 4
		base.Direction = dir
		base.FrameMode = FrameSnapshot
		base.DataUsersPerCell = 8 // enough contention that grants matter
		var wantFP [6]float64
		var wantTrace []trace.Record
		for i, par := range []int{1, 2, 7} {
			cfg := base
			cfg.FrameParallel = par
			fp, rec := runTraced(t, cfg)
			if i == 0 {
				wantFP, wantTrace = fp, rec
				if fp[1] == 0 {
					t.Fatalf("%s: no bursts completed; scenario too light to test determinism", dir)
				}
				continue
			}
			if fp != wantFP {
				t.Errorf("%s par=%d: metrics diverged: %v vs %v", dir, par, fp, wantFP)
			}
			if !reflect.DeepEqual(rec, wantTrace) {
				t.Errorf("%s par=%d: trace diverged from the inline snapshot trace", dir, par)
			}
		}
	}
}

// TestSnapshotTraceIdenticalAcrossWorkerCountsExact covers the exact
// reference path (dB-domain kernels, exact VTAOC integral) with the same
// gate.
func TestSnapshotTraceIdenticalAcrossWorkerCountsExact(t *testing.T) {
	base := quickConfig()
	base.SimTime = 3
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
			t.Errorf("exact par=%d: metrics diverged: %v vs %v", par, fp, want)
		}
		if !reflect.DeepEqual(rec, wantTrace) {
			t.Errorf("exact par=%d: trace diverged", par)
		}
	}
}

// TestWindowedFullWidthIdentity pins the two identities of the windowed
// physics: a window width at or above the cell count is the map-wide
// window PilotCells 0 builds, so the run is exactly the PilotCells 0 run;
// and a windowed snapshot run is the same inline or fanned out. Both on the
// fast and the exact kernels.
func TestWindowedFullWidthIdentity(t *testing.T) {
	for _, exact := range []bool{false, true} {
		for _, dir := range []Direction{Forward, Reverse} {
			base := quickConfig()
			base.SimTime = 4
			base.Direction = dir
			base.ExactPHY = exact
			full, fullTrace := runTraced(t, base)
			for _, width := range []int{7, 19} { // >= 7 cells: the window is the whole layout
				win := base
				win.PilotCells = width
				got, gotTrace := runTraced(t, win)
				if got != full {
					t.Errorf("exact=%v %s width %d: run diverged from PilotCells 0: %v vs %v", exact, dir, width, got, full)
				}
				if !reflect.DeepEqual(gotTrace, fullTrace) {
					t.Errorf("exact=%v %s width %d: trace diverged from PilotCells 0", exact, dir, width)
				}
			}
			win := base
			win.Rings = 3 // 37 cells
			win.DataUsersPerCell = 2
			win.PilotCells = 19 // a window that really moves
			win.FrameMode = FrameSnapshot
			win.FrameParallel = 1
			wantFP, wantTrace := runTraced(t, win)
			win.FrameParallel = 3
			gotFP, gotTrace := runTraced(t, win)
			if gotFP != wantFP {
				t.Errorf("exact=%v %s: pooled windowed run diverged from the inline one: %v vs %v", exact, dir, gotFP, wantFP)
			}
			if !reflect.DeepEqual(gotTrace, wantTrace) {
				t.Errorf("exact=%v %s: pooled windowed trace diverged", exact, dir)
			}
		}
	}
}

// TestWindowedNarrowRunCompletes exercises a genuinely restricted window (a
// 4-ring map with a 19-cell window, so retargets actually happen) end to
// end: the run must stay healthy — traffic served, every user's reduced set
// inside its window — while using O(users x window) instead of O(users x
// cells) channel state.
func TestWindowedNarrowRunCompletes(t *testing.T) {
	cfg := quickConfig()
	cfg.Rings = 4 // 61 cells, window covers less than a third
	cfg.SimTime = 4
	cfg.DataUsersPerCell = 2
	cfg.VoiceUsersPerCell = 1
	cfg.PilotCells = 19
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.winB.Width() != 19 {
		t.Fatalf("window width = %d, want 19", e.winB.Width())
	}
	m, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.BurstsCompleted == 0 {
		t.Error("windowed run completed no bursts")
	}
	for _, u := range e.users {
		for _, k := range u.reduced {
			if cellular.FindCell(u.cand, int32(k)) < 0 {
				t.Fatalf("user %d reduced-set cell %d outside its candidate window %v", u.id, k, u.cand)
			}
		}
	}
}

// TestFullScanWiderThanMergeBound: PilotCells 0 on a map with more cells
// than channel.MaxWindowWidth gives a map-wide window past the window
// merge's fixed bound. Its candidate list never moves, so the engine must
// build and run on both the fast and the exact kernels.
func TestFullScanWiderThanMergeBound(t *testing.T) {
	for _, exact := range []bool{false, true} {
		cfg := quickConfig()
		cfg.Rings = 9 // 271 cells
		cfg.DataUsersPerCell = 1
		cfg.VoiceUsersPerCell = 0
		cfg.SimTime = 0.25
		cfg.WarmupTime = 0
		cfg.ExactPHY = exact
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := e.layout.NumCells()
		if n <= channel.MaxWindowWidth || e.winB.Width() != n {
			t.Fatalf("exact=%v: %d cells, window width %d; want a map-wide window wider than %d", exact, n, e.winB.Width(), channel.MaxWindowWidth)
		}
		if _, err := e.Run(context.Background()); err != nil {
			t.Fatalf("exact=%v: %v", exact, err)
		}
		if e.Frame() != 5 {
			t.Fatalf("exact=%v: ran %d frames, want 5", exact, e.Frame())
		}
		want := min(n, cellular.TopPilots)
		for _, u := range e.users {
			if len(u.pilots) != want || u.hostCell < 0 || u.hostCell >= n {
				t.Fatalf("exact=%v: user %d has %d pilots (want %d) and host cell %d", exact, u.id, len(u.pilots), want, u.hostCell)
			}
		}
	}
}
