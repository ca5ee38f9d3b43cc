package experiments

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
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

// TestAllParallelMatchesSequential is the determinism contract of the
// registry runner: the suite produces the same bytes at any parallelism,
// because every experiment carries its own fixed seeds, and a table that
// reuses rows an earlier experiment ran (E6 after E5, E8 after E7, E10
// after E9) equals the table run alone.
func TestAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation experiments skipped in -short mode")
	}
	small := tinyScale
	small.LoadPoints = []int{3}

	defs := Registry()
	sequential, err := collectTables(defs, small, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := collectTables(defs, small, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sequential) != len(parallel) {
		t.Fatalf("table counts differ: %d vs %d", len(sequential), len(parallel))
	}
	for i := range sequential {
		if a, b := csvOf(t, sequential[i]), csvOf(t, parallel[i]); !bytes.Equal(a, b) {
			t.Errorf("%s: parallel output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s", defs[i].ID, a, b)
		}
	}
	for _, id := range []string{"E6", "E8", "E10"} {
		i := slices.IndexFunc(defs, func(d Experiment) bool { return d.ID == id })
		alone, err := collectTables(defs[i:i+1], small, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := csvOf(t, alone[0]), csvOf(t, sequential[i]); !bytes.Equal(a, b) {
			t.Errorf("%s alone differs from %s after %s:\n--- alone\n%s\n--- in the suite\n%s", id, id, defs[i-1].ID, a, b)
		}
	}
}

// csvOf renders a table as CSV.
func csvOf(t *testing.T, tbl *report.Table) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// swapReplicate makes replicateRuns call wrap for the rest of the test.
func swapReplicate(t *testing.T, wrap func(ctx context.Context, cfgs []sim.Config, reps, parallel int, emit func(int, *sim.Aggregate) error) error) {
	replicateRuns = wrap
	t.Cleanup(func() { replicateRuns = sim.Replicate })
}

// TestStreamExperimentsRunsEachScenarioOnce counts the scenarios E5-E10
// simulate: none twice, and none for a table whose rows an earlier
// experiment ran. At the tiny scale E6's rows are E5's, E8's adaptive pair
// is E7's sigma = 8 dB pair, and E10's D2 = 1 s row is E9's lambda = 0.05
// row.
func TestStreamExperimentsRunsEachScenarioOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation experiments skipped in -short mode")
	}
	seen := map[string]bool{}
	runs := 0
	swapReplicate(t, func(ctx context.Context, cfgs []sim.Config, reps, parallel int, emit func(int, *sim.Aggregate) error) error {
		for _, cfg := range cfgs {
			key, err := sim.SemanticConfigJSON(cfg)
			if err != nil {
				return err
			}
			if seen[string(key)] {
				t.Errorf("scenario simulated twice: %s", key)
			}
			seen[string(key)] = true
		}
		runs += len(cfgs)
		return sim.Replicate(ctx, cfgs, reps, parallel, emit)
	})
	defs := Registry()[4:10]
	var got []int // scenarios simulated per experiment
	last := 0
	err := StreamExperiments(context.Background(), defs, tinyScale, 0, func(int, *report.Table) error {
		got, last = append(got, runs-last), runs
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{6, 0, 6, 2, 4, 2}
	if !slices.Equal(got, want) {
		t.Errorf("scenarios simulated by E5-E10 = %v, want %v", got, want)
	}
}

// TestStreamExperimentsParallelOneRunsOneEngine checks that parallel bounds
// the runs in flight: at parallel 1, steady and transient experiments alike
// hand sim.Replicate a width of 1, and no two of its calls overlap, so no
// two engines are in flight at once.
func TestStreamExperimentsParallelOneRunsOneEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation experiments skipped in -short mode")
	}
	var inFlight, calls atomic.Int32
	swapReplicate(t, func(ctx context.Context, cfgs []sim.Config, reps, parallel int, emit func(int, *sim.Aggregate) error) error {
		calls.Add(1)
		if n := inFlight.Add(1); n > 1 {
			t.Errorf("%d sim.Replicate calls in flight at parallel 1", n)
		}
		defer inFlight.Add(-1)
		if parallel != 1 {
			t.Errorf("sim.Replicate got parallel %d, want 1", parallel)
		}
		return sim.Replicate(ctx, cfgs, reps, parallel, emit)
	})
	defs := []Experiment{Registry()[4], Registry()[6], Registry()[10]} // E5, E7, E11
	if _, err := collectTables(defs, tinyScale, 1); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != int32(len(defs)) {
		t.Errorf("%d sim.Replicate calls, want one per experiment (%d)", calls.Load(), len(defs))
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
