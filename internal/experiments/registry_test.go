package experiments

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"jabasd/internal/report"
	"jabasd/internal/sim"
)

func TestRegistryIDsStableAndUnique(t *testing.T) {
	defs := Registry()
	if len(defs) != 14 {
		t.Fatalf("registry has %d experiments, want 14", len(defs))
	}
	seen := map[string]bool{}
	for i, d := range defs {
		want := "E" + itoa(i+1)
		if d.ID != want {
			t.Errorf("registry[%d].ID = %s, want %s", i, d.ID, want)
		}
		if seen[d.ID] {
			t.Errorf("duplicate id %s", d.ID)
		}
		seen[d.ID] = true
		if d.Title == "" || d.Run == nil {
			t.Errorf("%s: incomplete registration", d.ID)
		}
	}
	// E1-E4 are the analytic experiments.
	for i, d := range defs {
		if want := i < 4; d.Analytic != want {
			t.Errorf("%s.Analytic = %v, want %v", d.ID, d.Analytic, want)
		}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func TestByID(t *testing.T) {
	for _, id := range []string{"E1", "e1", " e10 "} {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) should resolve", id)
		}
	}
	for _, id := range []string{"E99", "e1x", "", "E"} {
		if _, ok := ByID(id); ok {
			t.Errorf("ByID(%q) should fail", id)
		}
	}
	if len(IDs()) != len(Registry()) {
		t.Error("IDs and Registry disagree")
	}
}

// TestStreamExperimentsEmitsPrefixBeforeFailure checks the streaming
// contract: when an experiment fails, everything before it in suite order
// has already been emitted, and nothing at or after it is.
func TestStreamExperimentsEmitsPrefixBeforeFailure(t *testing.T) {
	ok := func(id string) Experiment {
		return Experiment{ID: id, Title: id, Run: func(context.Context, Scale) (*report.Table, error) {
			return report.NewTable(id, "col"), nil
		}}
	}
	boom := Experiment{ID: "EX", Title: "fails", Run: func(context.Context, Scale) (*report.Table, error) {
		return nil, errors.New("boom")
	}}
	defs := []Experiment{ok("A"), ok("B"), boom, ok("C")}
	var emitted []string
	err := StreamExperiments(context.Background(), defs, Quick, 4, func(i int, tbl *report.Table) error {
		emitted = append(emitted, defs[i].ID)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "EX") {
		t.Fatalf("err = %v, want the failing experiment named", err)
	}
	if got := strings.Join(emitted, ","); got != "A,B" {
		t.Errorf("emitted %q before the failure, want A,B", got)
	}
	// An emit error also stops the stream, keeping the earlier emissions.
	emitted = nil
	err = StreamExperiments(context.Background(), []Experiment{ok("A"), ok("B")}, Quick, 1, func(i int, _ *report.Table) error {
		emitted = append(emitted, defs[i].ID)
		return errors.New("sink full")
	})
	if err == nil || len(emitted) != 1 {
		t.Errorf("emit error should stop after the first table: err=%v emitted=%v", err, emitted)
	}
}

// TestStreamExperimentsKeepsFramesInlineUnderFanOut pins that experiments
// run side by side do not each start a frame pool: with more than one in
// flight, every engine an experiment builds from baseConfig runs its frames
// inline, and a lone experiment keeps the auto pool.
func TestStreamExperimentsKeepsFramesInlineUnderFanOut(t *testing.T) {
	for _, tc := range []struct {
		defs, parallel, want int
	}{
		{defs: 2, parallel: 2, want: 1},
		{defs: 3, parallel: 0, want: sim.ResolveFrameParallel(sim.Config{}, min(3, runtime.GOMAXPROCS(0)))},
		{defs: 2, parallel: 1, want: 0},
		{defs: 1, parallel: 4, want: 0},
	} {
		got := make([]int, tc.defs)
		defs := make([]Experiment, tc.defs)
		for i := range defs {
			defs[i] = Experiment{ID: strconv.Itoa(i), Run: func(_ context.Context, s Scale) (*report.Table, error) {
				got[i] = baseConfig(s).FrameParallel
				return report.NewTable("t", "col"), nil
			}}
		}
		if err := StreamExperiments(context.Background(), defs, Quick, tc.parallel, func(int, *report.Table) error { return nil }); err != nil {
			t.Fatal(err)
		}
		for i, fp := range got {
			if fp != tc.want {
				t.Errorf("%d experiments at parallel %d: experiment %d FrameParallel = %d, want %d", tc.defs, tc.parallel, i, fp, tc.want)
			}
		}
	}
}

// TestAllParallelMatchesSequential is the determinism contract of the
// registry runner: running the suite with full concurrency produces tables
// byte-identical to running each generator alone, because every experiment
// carries its own fixed seeds.
func TestAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation experiments skipped in -short mode")
	}
	small := tinyScale
	small.LoadPoints = []int{3}

	sequential, err := collectTables(Registry(), small, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := collectTables(Registry(), small, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sequential) != len(parallel) {
		t.Fatalf("table counts differ: %d vs %d", len(sequential), len(parallel))
	}
	for i := range sequential {
		var a, b bytes.Buffer
		if err := sequential[i].WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := parallel[i].WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: parallel output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
				Registry()[i].ID, a.String(), b.String())
		}
	}
}

// collectTables runs defs through StreamExperiments with the given
// parallelism and returns their tables in input order.
func collectTables(defs []Experiment, s Scale, parallel int) ([]*report.Table, error) {
	var out []*report.Table
	err := StreamExperiments(context.Background(), defs, s, parallel, func(_ int, tbl *report.Table) error {
		out = append(out, tbl)
		return nil
	})
	return out, err
}
