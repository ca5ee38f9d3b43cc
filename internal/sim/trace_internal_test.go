package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"jabasd/internal/trace"
)

// traceTestConfig is a small, fast scenario that still generates enough
// traffic for admission activity to show up in the telemetry.
func traceTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Rings = 1
	cfg.SimTime = 6
	cfg.WarmupTime = 1
	cfg.DataUsersPerCell = 6
	cfg.VoiceUsersPerCell = 4
	cfg.Data.MeanReadingTimeSec = 2
	return cfg
}

func TestTraceDoesNotPerturbSimulation(t *testing.T) {
	cfg := traceTestConfig()
	plain, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = &trace.Memory{}
	traced, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != traced.String() {
		t.Fatalf("tracing changed the simulation:\nplain:  %s\ntraced: %s", plain, traced)
	}
	if plain.BurstsGenerated != traced.BurstsGenerated || plain.BitsDelivered != traced.BitsDelivered {
		t.Fatalf("tracing changed the counters: %+v vs %+v", plain, traced)
	}
}

func TestTraceRecordConsistency(t *testing.T) {
	cfg := traceTestConfig()
	cfg.WarmupTime = 0 // align trace completions with the metrics counters
	mem := &trace.Memory{}
	cfg.Trace = mem
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := int(cfg.SimTime / cfg.FrameLength)
	cells := m.Cells
	if want := frames * cells; len(mem.Records) != want {
		t.Fatalf("got %d records, want %d (frames %d x cells %d)", len(mem.Records), want, frames, cells)
	}
	var offered, admitted, completed int
	var delaySum float64
	for i, r := range mem.Records {
		wantFrame, wantCell := i/cells, i%cells
		if r.Frame != wantFrame || r.Cell != wantCell {
			t.Fatalf("record %d is (frame %d, cell %d), want (%d, %d)", i, r.Frame, r.Cell, wantFrame, wantCell)
		}
		if r.Admitted > r.Offered {
			t.Fatalf("record %d admitted %d > offered %d", i, r.Admitted, r.Offered)
		}
		if r.Admitted > 0 && r.GrantedRatio < r.Admitted {
			t.Fatalf("record %d granted ratio %d below admitted count %d", i, r.GrantedRatio, r.Admitted)
		}
		switch r.Solve {
		case trace.SolveIdle:
			if r.Offered != 0 {
				t.Fatalf("record %d idle with offered %d", i, r.Offered)
			}
		case trace.SolveOK, trace.SolveSkipped:
		default:
			t.Fatalf("record %d has unknown solve status %q", i, r.Solve)
		}
		if r.Load < 0 {
			t.Fatalf("record %d has negative load %g", i, r.Load)
		}
		offered += r.Offered
		admitted += r.Admitted
		completed += r.Completed
		delaySum += r.DelaySumS
	}
	if int64(completed) != m.BurstsCompleted {
		t.Fatalf("trace completions %d != metrics BurstsCompleted %d", completed, m.BurstsCompleted)
	}
	if completed > 0 && delaySum <= 0 {
		t.Fatal("completions recorded but no delay mass")
	}
	if admitted == 0 || offered == 0 {
		t.Fatal("trace saw no admission activity; scenario too light to test anything")
	}
}

func TestTraceEverySamples(t *testing.T) {
	cfg := traceTestConfig()
	mem := &trace.Memory{}
	cfg.Trace = mem
	cfg.TraceEvery = 25
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := int(cfg.SimTime / cfg.FrameLength)
	sampled := (frames + cfg.TraceEvery - 1) / cfg.TraceEvery
	if want := sampled * m.Cells; len(mem.Records) != want {
		t.Fatalf("got %d records, want %d", len(mem.Records), want)
	}
	for _, r := range mem.Records {
		if r.Frame%cfg.TraceEvery != 0 {
			t.Fatalf("unsampled frame %d recorded", r.Frame)
		}
	}
}

func TestTraceIdenticalAcrossFrameParallel(t *testing.T) {
	run := func(workers int) []trace.Record {
		cfg := traceTestConfig()
		cfg.FrameMode = FrameSnapshot
		cfg.FrameParallel = workers
		mem := &trace.Memory{}
		cfg.Trace = mem
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return mem.Records
	}
	one, eight := run(1), run(8)
	if len(one) == 0 {
		t.Fatal("no records")
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatal("snapshot trace differs between -frameparallel 1 and 8")
	}
}

// TestRunReplicationsTracesOnlyReplicationZero checks that both sinks,
// the telemetry trace and the solve trace, see replication 0 alone.
func TestRunReplicationsTracesOnlyReplicationZero(t *testing.T) {
	cfg := traceTestConfig()
	mem := &trace.Memory{}
	var solves bytes.Buffer
	cfg.Trace, cfg.SolveTrace = mem, &solves
	if _, err := RunReplications(context.Background(), cfg, 3); err != nil {
		t.Fatal(err)
	}
	// Exactly one engine wrote: every (frame, cell) pair appears once.
	seen := map[[2]int]bool{}
	for _, r := range mem.Records {
		key := [2]int{r.Frame, r.Cell}
		if seen[key] {
			t.Fatalf("(frame %d, cell %d) recorded twice: more than one replication traced", r.Frame, r.Cell)
		}
		seen[key] = true
	}
	// And it was replication 0: identical to a single traced run.
	single := &trace.Memory{}
	var singleSolves bytes.Buffer
	cfg.Trace, cfg.SolveTrace = single, &singleSolves
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mem.Records, single.Records) {
		t.Fatal("replication-0 trace differs from a single run with the same seed")
	}
	if singleSolves.Len() == 0 {
		t.Fatal("the single run wrote no solve trace")
	}
	if !bytes.Equal(solves.Bytes(), singleSolves.Bytes()) {
		t.Fatalf("replicated solve trace (%d bytes) differs from a single run's (%d bytes)",
			solves.Len(), singleSolves.Len())
	}
}
