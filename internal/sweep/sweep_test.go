package sweep

import (
	"context"
	"strings"
	"testing"

	"jabasd/internal/core"
	"jabasd/internal/report"
	"jabasd/internal/scenario"
	"jabasd/internal/sim"
)

// shrink makes every point cheap enough for unit tests: one ring, short
// simulated time, light voice background.
func shrink(cfg *sim.Config) {
	cfg.Rings = 1
	cfg.SimTime = 2
	cfg.WarmupTime = 0.5
	cfg.VoiceUsersPerCell = 2
	cfg.Data.MeanReadingTimeSec = 2
}

func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("datausers=4, 8 ,12")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Name != "datausers" || len(ax.Values) != 3 || ax.Values[1] != "8" {
		t.Errorf("parsed %+v", ax)
	}
	for _, spec := range []string{"", "datausers", "=4", "nope=1,2", "datausers="} {
		if _, err := ParseAxis(spec); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
}

func TestPointsGridOrderAndDedup(t *testing.T) {
	g, err := New(scenario.PresetSmoke, []string{
		"datausers=4,4,8", // the repeated 4 must collapse
		"direction=forward,reverse",
	})
	if err != nil {
		t.Fatal(err)
	}
	points, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{
		"datausers=4 direction=forward",
		"datausers=4 direction=reverse",
		"datausers=8 direction=forward",
		"datausers=8 direction=reverse",
	}
	if len(points) != len(wantLabels) {
		t.Fatalf("got %d points, want %d (dedup broken)", len(points), len(wantLabels))
	}
	for i, p := range points {
		if p.Index != i {
			t.Errorf("point %d has index %d", i, p.Index)
		}
		if p.Label() != wantLabels[i] {
			t.Errorf("point %d label %q, want %q (grid order broken)", i, p.Label(), wantLabels[i])
		}
	}
	if points[1].Config.Direction != sim.Reverse || points[2].Config.DataUsersPerCell != 8 {
		t.Error("axis values not applied to the configs")
	}
}

func TestPointsNoAxesIsThePreset(t *testing.T) {
	g := Grid{Preset: scenario.PresetSmoke}
	points, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Label() != "(preset)" {
		t.Fatalf("expected the bare preset point, got %+v", points)
	}
	want, _ := scenario.Lookup(scenario.PresetSmoke)
	if points[0].Config.DataUsersPerCell != want.DataUsersPerCell {
		t.Error("bare point should equal the preset config")
	}
}

func TestSpeedAndObjectiveAxes(t *testing.T) {
	g, err := New(scenario.PresetSmoke, []string{"speed=1:5,3", "objective=j1,j2"})
	if err != nil {
		t.Fatal(err)
	}
	points, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	if points[0].Config.MinSpeed != 1 || points[0].Config.MaxSpeed != 5 {
		t.Errorf("speed range not applied: %+v", points[0].Config)
	}
	if points[2].Config.MinSpeed != 3 || points[2].Config.MaxSpeed != 3 {
		t.Errorf("constant speed not applied: %+v", points[2].Config)
	}
	if points[0].Config.Objective.Kind != core.ObjectiveThroughput {
		t.Error("j1 should select the throughput objective")
	}
	if points[1].Config.Objective.Kind != core.ObjectiveDelayAware {
		t.Error("j2 should select the delay-aware objective")
	}
}

func TestPointsRejectsBadValues(t *testing.T) {
	cases := [][]string{
		{"datausers=-1"},
		{"datausers=four"},
		{"speed=5:1"},
		{"speed=-2"},
		{"direction=sideways"},
		{"scheduler=bogus"},
		{"objective=j3"},
	}
	for _, specs := range cases {
		g, err := New(scenario.PresetSmoke, specs)
		if err != nil {
			continue // rejected at parse time is fine too
		}
		if _, err := g.Points(); err == nil {
			t.Errorf("specs %v should fail", specs)
		}
	}
	if _, err := (Grid{Preset: "no-such-preset"}).Points(); err == nil {
		t.Error("unknown preset should fail")
	}
	if _, err := (Grid{Axes: []Axis{{Name: "nope", Values: []string{"1"}}}}).Points(); err == nil {
		t.Error("unknown axis should fail")
	}
	if _, err := (Grid{Axes: []Axis{{Name: "datausers"}}}).Points(); err == nil {
		t.Error("empty axis should fail")
	}
	dup := Grid{Axes: []Axis{
		{Name: "datausers", Values: []string{"2", "4"}},
		{Name: "datausers", Values: []string{"8"}},
	}}
	if _, err := dup.Points(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate axis should fail, got %v", err)
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	g, err := New(scenario.PresetSmoke, []string{"datausers=2,4"})
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallel int) string {
		results, err := collect(context.Background(), g, Options{Reps: 2, Parallel: parallel, Mutate: shrink})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := curveTable(g, results).WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("sweep output depends on -parallel:\n--- parallel=1\n%s--- parallel=8\n%s", serial, parallel)
	}
	if strings.Count(serial, "\n") != 3 { // header + 2 points
		t.Errorf("expected 2 data rows, got:\n%s", serial)
	}
}

func TestStreamEmitsInGridOrder(t *testing.T) {
	g, err := New(scenario.PresetSmoke, []string{"datausers=1,2,3"})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	err = Stream(context.Background(), g, Options{Parallel: 4, Mutate: shrink}, func(r Result) error {
		got = append(got, r.Index)
		if r.Agg == nil || r.Agg.Replications != 1 {
			t.Errorf("point %d has no aggregate", r.Index)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("emit order %v not grid order", got)
		}
	}
	if len(got) != 3 {
		t.Fatalf("emitted %d of 3 points", len(got))
	}
}

func TestStreamRejectsInvalidMutatedConfig(t *testing.T) {
	g, err := New(scenario.PresetSmoke, []string{"datausers=2"})
	if err != nil {
		t.Fatal(err)
	}
	err = Stream(context.Background(), g, Options{Mutate: func(c *sim.Config) { c.SimTime = -1 }}, func(Result) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "point 0") {
		t.Errorf("invalid mutated config should fail naming the point, got %v", err)
	}
}

func TestBaseSeedOverrideIsDeterministic(t *testing.T) {
	g, err := New(scenario.PresetSmoke, []string{"datausers=2"})
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) []Result {
		out, err := collect(context.Background(), g, Options{BaseSeed: seed, Mutate: shrink})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(42), run(42)
	if a[0].Agg.MeanDelay.Mean() != b[0].Agg.MeanDelay.Mean() {
		t.Error("same BaseSeed should reproduce results")
	}
	c := run(43)
	if a[0].Config.Seed == c[0].Config.Seed {
		t.Error("BaseSeed override not applied")
	}
}

func TestLookupGrid(t *testing.T) {
	g, err := LookupGrid("paper-load-sweep")
	if err != nil {
		t.Fatal(err)
	}
	if g.Preset != scenario.PresetBaseline || len(g.Axes) != 3 {
		t.Errorf("unexpected grid %+v", g)
	}
	if _, err := LookupGrid("nope"); err == nil {
		t.Error("unknown grid should fail")
	}
	names := GridNames()
	if len(names) == 0 || names[0] != "paper-load-sweep" {
		t.Errorf("grid names %v", names)
	}
	for _, bg := range Grids() {
		if _, err := bg.Points(); err != nil {
			t.Errorf("built-in grid %s does not expand: %v", bg.Name, err)
		}
	}
}

// TestPaperLoadSweepEndToEnd runs the paper's headline grid — the 4→24 data
// users/cell load axis for all five schedulers on both links — end to end
// (at a shrunk per-point cost) and checks one curve row per (load,
// scheduler, direction) point comes out.
func TestPaperLoadSweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("60-point sweep skipped in -short mode")
	}
	g, err := LookupGrid("paper-load-sweep")
	if err != nil {
		t.Fatal(err)
	}
	points, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	const want = 6 * 5 * 2
	if len(points) != want {
		t.Fatalf("paper-load-sweep has %d points, want %d", len(points), want)
	}

	results, err := collect(context.Background(), g, Options{Reps: 1, Mutate: func(c *sim.Config) {
		shrink(c)
		c.SimTime = 1.5
		c.WarmupTime = 0.3
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != want {
		t.Fatalf("got %d results, want %d", len(results), want)
	}
	tbl := curveTable(g, results)
	if tbl.NumRows() != want {
		t.Fatalf("curve table has %d rows, want %d", tbl.NumRows(), want)
	}
	// Every (load, scheduler, direction) combination must appear exactly once.
	seen := map[string]bool{}
	for _, r := range results {
		key := r.Label()
		if seen[key] {
			t.Errorf("duplicate point %s", key)
		}
		seen[key] = true
	}
	for _, load := range []string{"4", "8", "12", "16", "20", "24"} {
		for _, sched := range []string{"jaba-sd", "fcfs", "random"} {
			for _, dir := range []string{"forward", "reverse"} {
				key := "datausers=" + load + " scheduler=" + sched + " direction=" + dir
				if !seen[key] {
					t.Errorf("missing point %s", key)
				}
			}
		}
	}
}

func TestAxesListing(t *testing.T) {
	names := AxisNames()
	if len(names) != 8 {
		t.Errorf("axis names %v", names)
	}
	lines := Axes()
	if len(lines) != len(names) {
		t.Fatalf("Axes() and AxisNames() disagree: %d vs %d", len(lines), len(names))
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, names[i]+": ") {
			t.Errorf("axis line %q does not describe %q", line, names[i])
		}
	}
}

// curveTable renders sweep results as a complete curve table, one row per
// grid point, the way jabasweep streams it.
func curveTable(g Grid, results []Result) *report.Table {
	tbl := NewCurveTable(g)
	for _, r := range results {
		AppendCurveRow(tbl, r)
	}
	return tbl
}

// collect runs the grid through Stream and returns the results in grid
// order.
func collect(ctx context.Context, g Grid, opts Options) ([]Result, error) {
	var out []Result
	err := Stream(ctx, g, opts, func(r Result) error {
		out = append(out, r)
		return nil
	})
	return out, err
}
