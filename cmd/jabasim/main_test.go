package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOut runs the command with args and returns what it wrote to stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return buf.String()
}

func TestRunListPresets(t *testing.T) {
	if out := runOut(t, "-list-presets"); !strings.Contains(out, "smoke") {
		t.Errorf("-list-presets output:\n%s", out)
	}
}

func TestRunDumpConfig(t *testing.T) {
	if out := runOut(t, "-preset", "smoke", "-dump-config"); !json.Valid([]byte(out)) {
		t.Errorf("-dump-config printed invalid JSON:\n%s", out)
	}
}

func TestRunSmokeSingleReplication(t *testing.T) {
	out := runOut(t, "-preset", "smoke", "-sim-time", "4", "-data-users", "3", "-seed", "7")
	if !strings.HasPrefix(out, "JABA-SD/forward: ") || !strings.Contains(out, "\n  skipped cell-frames: 0\n") {
		t.Errorf("single-run printout:\n%s", out)
	}
}

// TestRunSmokeMultiReplication checks that a replicated run prints the
// one-row curve table: the result columns, then reps and the metrics.
func TestRunSmokeMultiReplication(t *testing.T) {
	out := runOut(t, "-preset", "smoke", "-sim-time", "3", "-data-users", "2", "-reps", "2")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 4 || lines[0] != "# JABA-SD/forward" {
		t.Fatalf("replicated printout:\n%s", out)
	}
	header, row := strings.Fields(lines[1]), strings.Fields(lines[3])
	if len(header) != 11 || header[0] != "reps" || header[7] != "mean_delay_s" || len(row) != len(header) || row[0] != "2" {
		t.Errorf("replicated printout:\n%s", out)
	}
}

func TestRunReverseDirectionOverride(t *testing.T) {
	args := []string{"-preset", "smoke", "-sim-time", "3", "-data-users", "2", "-direction"}
	if out := runOut(t, append(args, "reverse")...); !strings.HasPrefix(out, "JABA-SD/reverse: ") {
		t.Errorf("reverse run printout:\n%s", out)
	}
	if out := runOut(t, append(args, "forward")...); !strings.HasPrefix(out, "JABA-SD/forward: ") {
		t.Errorf("forward run printout:\n%s", out)
	}
}

func TestRunSchedulerOverride(t *testing.T) {
	if out := runOut(t, "-preset", "smoke", "-sim-time", "3", "-data-users", "2", "-scheduler", "fcfs"); !strings.HasPrefix(out, "FCFS/forward: ") {
		t.Errorf("fcfs run printout:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-preset", "no-such-preset"},
		{"-direction", "sideways"},
		{"-preset", "smoke", "-scheduler", "bogus"},
		{"-config", filepath.Join(t.TempDir(), "missing.json")},
		{"-preset", "smoke", "-config", "anything.json"}, // exclusive pair
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestRunFromConfigFile(t *testing.T) {
	// Produce a config file via -dump-config equivalent path: write a small
	// JSON override and load it back.
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	content := []byte(`{"Rings": 1, "SimTime": 3, "WarmupTime": 1, "DataUsersPerCell": 2, "VoiceUsersPerCell": 2}`)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	runOut(t, "-config", path)
}

func TestRunFrameModeOverride(t *testing.T) {
	args := []string{"-preset", "smoke", "-sim-time", "3", "-data-users", "2"}
	runOut(t, append(args, "-framemode", "snapshot", "-frameparallel", "2")...)
	runOut(t, append(args, "-framemode", "sequential")...)
	runOut(t, "-preset", "metro", "-dump-config")
	if err := run(context.Background(), append(args, "-framemode", "warp"), io.Discard); err == nil {
		t.Error("unknown frame mode should fail")
	}
	if err := run(context.Background(), append(args, "-framemode", "snapshot", "-frameparallel", "-2"), io.Discard); err == nil {
		// -2 passes the flag's "keep scenario" sentinel of -1, so it must
		// reach Validate and be rejected there.
		t.Error("negative FrameParallel should fail validation")
	}
}

func TestRunTraceCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	args := []string{"-preset", "smoke", "-sim-time", "3", "-data-users", "3", "-trace", path, "-trace-every", "25"}
	runOut(t, args...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "frame,time_s,cell,") {
		t.Fatalf("unexpected trace header %q", lines[0])
	}
	// 3 s / 20 ms = 150 frames, every 25th sampled, 7 cells (1 ring).
	if want := 1 + 6*7; len(lines) != want {
		t.Fatalf("trace has %d lines, want %d", len(lines), want)
	}
}

func TestRunTraceJSONLAndMultiRep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{"-preset", "smoke", "-sim-time", "3", "-data-users", "2", "-reps", "2", "-trace", path, "-trace-every", "50"}
	runOut(t, args...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[0] != '{' {
		t.Fatalf("expected JSONL output, got %q", string(data[:min(len(data), 40)]))
	}
}

func TestRunTraceErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-preset", "smoke", "-trace-every", "-1"}, io.Discard); err == nil {
		t.Error("negative -trace-every should fail")
	}
	missingDir := filepath.Join(t.TempDir(), "no", "such", "dir", "t.csv")
	if err := run(context.Background(), []string{"-preset", "smoke", "-sim-time", "3", "-trace", missingDir}, io.Discard); err == nil {
		t.Error("unwritable -trace path should fail")
	}
}

// TestRunUnopenableSinkKeepsFiles names an existing trace and CPU profile
// and a solve trace in a missing directory: the run must fail before it
// truncates the existing files, and remove the one it created.
func TestRunUnopenableSinkKeepsFiles(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "ex.csv")
	if err := os.WriteFile(tracePath, []byte("keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	profPath := filepath.Join(dir, "new.prof")
	args := []string{"-preset", "smoke", "-sim-time", "3", "-cpuprofile", profPath, "-trace", tracePath,
		"-solve-trace", filepath.Join(dir, "no", "such", "dir", "s.jsonl")}
	if err := run(context.Background(), args, io.Discard); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unopenable -solve-trace path: err = %v, want a missing-directory error", err)
	}
	if data, err := os.ReadFile(tracePath); err != nil || string(data) != "keep\n" {
		t.Fatalf("existing -trace file holds %q (%v), want its original bytes", data, err)
	}
	if _, err := os.Stat(profPath); !os.IsNotExist(err) {
		t.Fatalf("-cpuprofile file created by the failed run is still there (%v)", err)
	}
}

func TestRunCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "state.ckpt")
	base := []string{"-preset", "smoke", "-sim-time", "3", "-data-users", "2", "-seed", "5"}
	// 3 s / 20 ms = 150 frames; every 50 leaves the final checkpoint at 150.
	runOut(t, append(base, "-checkpoint", ck, "-checkpoint-every", "50")...)
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	// The scenario comes from the checkpoint; no -preset needed (or allowed).
	runOut(t, "-resume", ck)
	// Execution knobs may still change across a resume.
	runOut(t, "-resume", ck, "-frameparallel", "1")
}

func TestRunCheckpointErrors(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "state.ckpt")
	cases := [][]string{
		{"-preset", "smoke", "-checkpoint", ck},         // missing cadence
		{"-preset", "smoke", "-checkpoint-every", "50"}, // missing path
		{"-preset", "smoke", "-reps", "2", "-checkpoint", ck, "-checkpoint-every", "10"},
		{"-resume", filepath.Join(dir, "missing.ckpt")},
		{"-preset", "smoke", "-resume", ck}, // resume excludes an explicit scenario
	}
	for _, args := range cases {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestRunSolveTraceAndReplay(t *testing.T) {
	dir := t.TempDir()
	solves := filepath.Join(dir, "solves.jsonl")
	args := []string{"-preset", "smoke", "-sim-time", "3", "-data-users", "3", "-seed", "9", "-solve-trace", solves}
	runOut(t, args...)
	data, err := os.ReadFile(solves)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[0] != '{' {
		t.Fatalf("expected a JSONL solve trace, got %q", string(data[:min(len(data), 40)]))
	}

	// Replaying under the recorded policy and under a counterfactual one
	// produces line-aligned grants files.
	recorded := filepath.Join(dir, "recorded.csv")
	runOut(t, "-replay", solves, "-replay-out", recorded)
	counter := filepath.Join(dir, "greedy.csv")
	runOut(t, "-replay", solves, "-scheduler", "jaba-sd-greedy", "-replay-out", counter)
	a, err := os.ReadFile(recorded)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(counter)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(a), "frame,cell,user,ratio\n") {
		t.Fatalf("unexpected grants header %q", strings.SplitN(string(a), "\n", 2)[0])
	}
	if la, lb := strings.Count(string(a), "\n"), strings.Count(string(b), "\n"); la != lb {
		t.Fatalf("grants files are not line-aligned: %d vs %d rows", la, lb)
	}
}

func TestRunSolveTraceAndReplayErrors(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-preset", "smoke", "-reps", "2", "-solve-trace", filepath.Join(dir, "s.jsonl")},
		{"-replay", filepath.Join(dir, "missing.jsonl")},
		{"-replay", filepath.Join(dir, "missing.jsonl"), "-resume", filepath.Join(dir, "x.ckpt")},
		{"-replay", filepath.Join(dir, "missing.jsonl"), "-checkpoint", filepath.Join(dir, "x.ckpt")},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
	// A refused -solve-trace run creates no output file, so it leaves an
	// existing trace and CPU profile as they were.
	trace, prof := filepath.Join(dir, "existing.csv"), filepath.Join(dir, "cpu.prof")
	for _, p := range []string{trace, prof} {
		if err := os.WriteFile(p, []byte("keep me\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err := run(context.Background(), []string{"-preset", "smoke", "-reps", "2", "-trace", trace,
		"-cpuprofile", prof, "-solve-trace", filepath.Join(dir, "s.jsonl")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-solve-trace records one engine") {
		t.Errorf("refused -solve-trace run: err = %v", err)
	}
	for _, p := range []string{trace, prof} {
		if data, err := os.ReadFile(p); err != nil || string(data) != "keep me\n" {
			t.Errorf("refused run changed %s: %q, %v", filepath.Base(p), data, err)
		}
	}
	// A replay with an unknown scheduler fails even on a valid trace.
	solves := filepath.Join(dir, "solves.jsonl")
	runOut(t, "-preset", "smoke", "-sim-time", "3", "-data-users", "2", "-solve-trace", solves)
	if err := run(context.Background(), []string{"-replay", solves, "-scheduler", "bogus"}, io.Discard); err == nil {
		t.Error("replay with unknown scheduler should fail")
	}
}
