package sim

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"jabasd/internal/core"
	"jabasd/internal/replay"
)

// recordSolveTrace runs cfg with solve tracing on and returns the raw trace.
func recordSolveTrace(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg.SolveTrace = &buf
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return buf.Bytes()
}

// TestSolveTraceReplayFidelity: re-solving a recorded trace with the
// header's own scheduler and objective must reproduce the recorded ratios
// exactly — the trace carries everything the scheduler saw. Covers both
// frame modes, a pooled greedy run and the one RNG-bearing scheduler (whose
// per-(frame, cell) reseeding Resolve mirrors).
func TestSolveTraceReplayFidelity(t *testing.T) {
	scenarios := map[string]func(*Config){
		"seq-jabasd":  func(cfg *Config) {},
		"snap-jabasd": func(cfg *Config) { cfg.FrameMode = FrameSnapshot; cfg.FrameParallel = 2 },
		"snap-random": func(cfg *Config) {
			cfg.FrameMode = FrameSnapshot
			cfg.FrameParallel = 2
			cfg.Scheduler = SchedulerRandom
		},
		// "tiled-greedy" is a stable test ID: a pooled snapshot greedy run.
		"tiled-greedy": func(cfg *Config) {
			cfg.FrameMode = FrameSnapshot
			cfg.FrameParallel = 3
			cfg.Scheduler = SchedulerGreedy
		},
	}
	for name, shape := range scenarios {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			shape(&cfg)
			raw := recordSolveTrace(t, cfg)

			hdr, problems, err := replay.ReadTrace(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("ReadTrace: %v", err)
			}
			if len(problems) == 0 {
				t.Fatal("trace recorded no problems")
			}
			wantKind := cfg.Scheduler
			if wantKind == "" {
				wantKind = SchedulerJABASD
			}
			if hdr.Scheduler != string(wantKind) {
				t.Fatalf("header scheduler %q, want %q", hdr.Scheduler, wantKind)
			}

			sched, err := NewScheduler(SchedulerKind(hdr.Scheduler), hdr.Seed)
			if err != nil {
				t.Fatalf("NewScheduler: %v", err)
			}
			got, err := replay.Resolve(hdr, problems, sched, hdr.Objective)
			if err != nil {
				t.Fatalf("Resolve: %v", err)
			}
			for i, p := range problems {
				if !reflect.DeepEqual(got[i].Ratios, p.Ratios) {
					t.Fatalf("frame %d cell %d: replayed ratios %v, recorded %v",
						p.Frame, p.Cell, got[i].Ratios, p.Ratios)
				}
			}
		})
	}
}

// TestSolveTraceIndependentOfParallelism: the trace is emitted on the
// sequential commit path in ascending cell order, so its bytes must not
// depend on the worker count.
func TestSolveTraceIndependentOfParallelism(t *testing.T) {
	base := tinyConfig()
	base.FrameMode = FrameSnapshot

	base.FrameParallel = 1
	ref := recordSolveTrace(t, base)
	if len(ref) == 0 {
		t.Fatal("reference run recorded nothing")
	}
	for _, workers := range []int{2, 3, 4} {
		cfg := base
		cfg.FrameParallel = workers
		if !bytes.Equal(ref, recordSolveTrace(t, cfg)) {
			t.Errorf("%d workers: solve trace differs from the single-worker run", workers)
		}
	}
}

// TestReplayCounterfactual: the same trace re-solved under a different
// scheduler yields a complete, line-aligned grants file — one row per
// recorded request in both the recorded and the counterfactual view, so the
// two CSVs diff row-for-row.
func TestReplayCounterfactual(t *testing.T) {
	cfg := tinyConfig()
	cfg.SimTime = 2
	raw := recordSolveTrace(t, cfg)

	hdr, problems, err := replay.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	sched, err := NewScheduler(SchedulerGreedy, hdr.Seed)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := replay.Resolve(hdr, problems, sched, hdr.Objective)
	if err != nil {
		t.Fatalf("Resolve under greedy: %v", err)
	}

	rows := 1 // header line
	for _, p := range problems {
		rows += len(p.Requests)
		if len(p.Ratios) != len(p.Requests) {
			t.Fatalf("frame %d cell %d: ragged recording", p.Frame, p.Cell)
		}
	}
	recorded := make([]core.Assignment, len(problems))
	for i, p := range problems {
		recorded[i] = core.Assignment{Ratios: p.Ratios}
	}
	var recCSV, cfCSV bytes.Buffer
	if err := replay.WriteGrantsCSV(&recCSV, problems, recorded); err != nil {
		t.Fatal(err)
	}
	if err := replay.WriteGrantsCSV(&cfCSV, problems, counter); err != nil {
		t.Fatal(err)
	}
	for name, csv := range map[string]string{"recorded": recCSV.String(), "counterfactual": cfCSV.String()} {
		if got := strings.Count(csv, "\n"); got != rows {
			t.Errorf("%s grants file has %d rows, want %d", name, got, rows)
		}
	}

	// Every counterfactual grant must respect the recorded problem's caps.
	for i, p := range problems {
		for j, m := range counter[i].Ratios {
			if m < 0 || m > hdr.MaxRatio {
				t.Fatalf("frame %d cell %d user %d: counterfactual ratio %d outside [0, %d]",
					p.Frame, p.Cell, p.Requests[j].UserID, m, hdr.MaxRatio)
			}
		}
	}
}

// TestSolveTraceRejectsDamage: format bumps, ragged lines and garbage must
// surface as errors from ReadTrace, never as silently empty traces.
func TestSolveTraceRejectsDamage(t *testing.T) {
	raw := recordSolveTrace(t, tinyConfig())
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("trace too short to damage (%d lines)", len(lines))
	}

	damaged := map[string][]byte{
		"empty":       nil,
		"bad-header":  []byte("{\"format\":\"bogus/v9\"}\n"),
		"not-json":    append(append([]byte{}, lines[0]...), []byte("not json\n")...),
		"ragged-line": append(append([]byte{}, lines[0]...), []byte(`{"frame":0,"cell":0,"requests":[{"user_id":1}],"ratios":[]}`+"\n")...),
	}
	for name, data := range damaged {
		if _, _, err := replay.ReadTrace(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: damage not rejected", name)
		}
	}
}
