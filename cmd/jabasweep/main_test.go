package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func capture(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return buf.String()
}

func TestListAxes(t *testing.T) {
	out := capture(t, "-list-axes")
	for _, want := range []string{"datausers", "speed", "scheduler", "objective", "direction"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list-axes missing %q:\n%s", want, out)
		}
	}
}

func TestListGrids(t *testing.T) {
	out := capture(t, "-list-grids")
	if !strings.Contains(out, "paper-load-sweep") || !strings.Contains(out, "points=60") {
		t.Errorf("-list-grids output:\n%s", out)
	}
}

func TestPointsDryRun(t *testing.T) {
	out := capture(t, "-preset", "smoke", "-axis", "datausers=2,4", "-reps", "2", "-points")
	if !strings.Contains(out, "datausers=2") || !strings.Contains(out, "2 points x 2 reps = 4 runs") {
		t.Errorf("-points output:\n%s", out)
	}
	// The named grids dry-run too, without running a single simulation.
	out = capture(t, "-grid", "paper-load-sweep", "-points")
	if got := strings.Count(out, "\n"); got != 61 { // 60 points + summary
		t.Errorf("paper-load-sweep dry run printed %d lines:\n%s", got, out)
	}
}

func TestJSONFormat(t *testing.T) {
	out := capture(t, "-preset", "smoke", "-axis", "datausers=2", "-format", "json")
	var doc struct {
		Title   string              `json:"title"`
		Columns []string            `json:"columns"`
		Rows    []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if len(doc.Rows) != 1 || doc.Rows[0]["datausers"] != "2" {
		t.Errorf("unexpected JSON rows: %+v", doc.Rows)
	}
	if doc.Columns[0] != "datausers" {
		t.Errorf("unexpected JSON columns: %v", doc.Columns)
	}
}

func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.csv")
	capture(t, "-preset", "smoke", "-axis", "datausers=2", "-o", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "admission_prob") {
		t.Errorf("written file missing header:\n%s", data)
	}
}

// TestRunUnopenableSinkKeepsFiles: when -trace cannot be opened the sweep
// fails before truncating -o, and an -o file it created is removed again.
func TestRunUnopenableSinkKeepsFiles(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(outPath, []byte("keep me\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	badTrace := filepath.Join(dir, "no", "such", "dir", "t.csv")
	args := []string{"-preset", "smoke", "-axis", "datausers=2", "-o", outPath, "-trace", badTrace}
	if err := run(context.Background(), args, io.Discard); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unopenable -trace path: err = %v, want a missing-directory error", err)
	}
	if data, err := os.ReadFile(outPath); err != nil || string(data) != "keep me\n" {
		t.Fatalf("existing -o file holds %q (%v), want its original bytes", data, err)
	}
	newOut := filepath.Join(dir, "new.csv")
	args = []string{"-preset", "smoke", "-axis", "datausers=2", "-o", newOut, "-trace", badTrace}
	if err := run(context.Background(), args, io.Discard); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unopenable -trace path: err = %v, want a missing-directory error", err)
	}
	if _, err := os.Stat(newOut); !os.IsNotExist(err) {
		t.Fatalf("-o file created by the failed sweep is still there (%v)", err)
	}
	// A device is opened but never truncated.
	capture(t, "-preset", "smoke", "-axis", "datausers=2", "-o", os.DevNull)
}

func TestSeedOverrideChangesResults(t *testing.T) {
	base := []string{"-preset", "smoke", "-axis", "datausers=4"}
	a := capture(t, append(base, "-seed", "7")...)
	b := capture(t, append(base, "-seed", "7")...)
	if a != b {
		t.Error("same -seed should reproduce the CSV")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-preset", "no-such-preset"},
		{"-axis", "nope=1,2"},
		{"-axis", "datausers=-3"},
		{"-grid", "no-such-grid"},
		{"-grid", "paper-load-sweep", "-axis", "datausers=2"},
		{"-grid", "paper-load-sweep", "-preset", "smoke"},
		{"-axis", "datausers=2", "-axis", "datausers=4"},
		{"-format", "xml"},
		{"-preset", "smoke", "-config", "anything.json"}, // exclusive pair
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestSweepFrameModeAxisAndFlagValidation(t *testing.T) {
	out := capture(t, "-preset", "smoke", "-axis", "framemode=sequential,snapshot", "-points")
	if !strings.Contains(out, "framemode=sequential") || !strings.Contains(out, "framemode=snapshot") {
		t.Errorf("framemode axis did not expand:\n%s", out)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-preset", "smoke", "-framemode", "warp"}, &buf); err == nil {
		t.Error("unknown -framemode should fail")
	}
}

func TestFrameModeFlagConflictsWithFrameModeAxis(t *testing.T) {
	// The flag override runs after axis values are applied, so combining it
	// with a framemode axis would mislabel rows; it must be rejected.
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-preset", "smoke", "-axis", "framemode=sequential,snapshot",
		"-framemode", "snapshot", "-points"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "framemode") {
		t.Errorf("expected a framemode conflict error, got %v", err)
	}
}

func TestSweepTraceFileDeterministicAcrossParallel(t *testing.T) {
	dir := t.TempDir()
	runTrace := func(name string, parallel string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		capture(t, "-preset", "smoke", "-axis", "datausers=2,4", "-reps", "2",
			"-parallel", parallel, "-trace", path, "-trace-every", "50")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	one := runTrace("p1.csv", "1")
	eight := runTrace("p8.csv", "8")
	if one != eight {
		t.Fatal("sweep trace depends on -parallel")
	}
	lines := strings.Split(strings.TrimSuffix(one, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "point,label,frame,") {
		t.Fatalf("unexpected trace header %q", lines[0])
	}
	// Rows arrive in grid order: the point column never decreases, and both
	// points appear.
	last, seen := -1, map[string]bool{}
	for _, line := range lines[1:] {
		cells := strings.SplitN(line, ",", 3)
		p, err := strconv.Atoi(cells[0])
		if err != nil || p < last {
			t.Fatalf("point column out of order at %q", line)
		}
		last = p
		seen[cells[1]] = true
	}
	if !seen["datausers=2"] || !seen["datausers=4"] {
		t.Fatalf("missing point labels, saw %v", seen)
	}
}

// TestSweepFromConfigFile anchors an ad-hoc grid on a JSON scenario instead
// of a preset: the axes expand over the file's configuration, and combining
// the file with a named grid is rejected.
func TestSweepFromConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	content := []byte(`{"Rings": 1, "SimTime": 3, "WarmupTime": 1, "VoiceUsersPerCell": 2}`)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, "-config", path, "-axis", "datausers=2,4")
	if got := strings.Count(out, "\n"); got != 3 {
		t.Errorf("expected header + 2 rows, got %d lines:\n%s", got, out)
	}
	err := run(context.Background(), []string{"-grid", "paper-load-sweep", "-config", path}, &bytes.Buffer{})
	if err == nil {
		t.Error("-grid with -config should conflict")
	}
}

func TestSweepTraceEveryValidation(t *testing.T) {
	err := run(context.Background(), []string{"-preset", "smoke", "-axis", "datausers=2", "-trace-every", "-1"}, os.Stdout)
	if err == nil {
		t.Error("negative -trace-every should fail")
	}
}
