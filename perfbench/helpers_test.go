package main

import (
	"math"
	"testing"
	"time"

	"jabasd/internal/core"
	"jabasd/internal/measurement"
	"jabasd/internal/replay"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 = refused
	}{
		{99, 0.90, 0},      // rank 90, 9 beyond
		{100, 0.90, 90},    // rank 90, 10 beyond
		{999, 0.99, 0},     // rank 990, 9 beyond
		{1000, 0.99, 990},  // rank 990, 10 beyond
		{2000, 0.50, 1000}, // a median of a large set
	} {
		got, err := percentile(ramp(tc.n), tc.p)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %g, want refusal", tc.p*100, tc.n, got)
		case tc.want != 0 && (err != nil || got != tc.want):
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.p*100, tc.n, got, err, tc.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples did not fail")
	}
}

// topOutput is `go tool pprof -top -unit=ms` output in the installed
// tool's layout, covering every grouping rule.
const topOutput = `File: jababench
Type: cpu
Duration: 5.01s, Total samples = 1000ms (19.96%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     300ms 30.00% 30.00%      300ms 30.00%  jabasd/internal/channel.(*Batch).AdvanceFast
     150ms 15.00% 45.00%      150ms 15.00%  math.archExp
     100ms 10.00% 55.00%      100ms 10.00%  jabasd/internal/mathx.GainRowFast (inline)
      90ms  9.00% 64.00%      200ms 20.00%  encoding/json.(*decodeState).object
      60ms  6.00% 70.00%       60ms  6.00%  strconv.readFloat
      50ms  5.00% 75.00%       50ms  5.00%  runtime.mallocgc
      40ms  4.00% 79.00%       40ms  4.00%  internal/runtime/syscall.Syscall6
      40ms  4.00% 83.00%       40ms  4.00%  net/http.(*conn).serve
      30ms  3.00% 86.00%       30ms  3.00%  internal/poll.(*FD).Read
      30ms  3.00% 89.00%       30ms  3.00%  jabasd/internal/lp.(*Solver).pivot
      30ms  3.00% 92.00%       30ms  3.00%  jabasd/internal/shard.Plan
      20ms  2.00% 94.00%       20ms  2.00%  sort.insertionSort[go.shape.struct { jabasd/internal/x.T }]
      20ms  2.00% 96.00%       20ms  2.00%  type:.eq.[2]interface {}
      20ms  2.00% 98.00%       20ms  2.00%  jabasd/internal/serve.(*Server).handleOracle
      20ms  2.00%   100%       20ms  2.00%  jabasd/internal/sim.(*Engine).admitSnapshot.func1
         0     0%   100%      500ms 50.00%  runtime.goexit
`

func TestGroupTopSharesSumToOne(t *testing.T) {
	shares, err := groupTop(topOutput)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %g, want 1 ± 0.01", sum)
	}
	if len(shares) != len(modules) {
		t.Errorf("%d modules reported, want all %d", len(shares), len(modules))
	}
	for mod, want := range map[string]float64{
		"channel": 0.30, "mathx": 0.25, "json": 0.15, "runtime": 0.05,
		"nethttp": 0.11, "ilp": 0.03, "serve": 0.02, "sim": 0.02, "other": 0.07,
	} {
		if math.Abs(shares[mod]-want) > 1e-9 {
			t.Errorf("%s share = %g, want %g", mod, shares[mod], want)
		}
	}
	if _, err := groupTop("Showing nodes accounting for 0, 0% of 0 total\n"); err == nil {
		t.Error("an empty listing did not fail")
	}
}

func TestCheckGrantRejectsTamperedGrant(t *testing.T) {
	// Two cells: the serving cell has headroom 10, a neighbour is already
	// over budget. Request 0 loads only the serving cell, request 1 both.
	p := &replay.Problem{
		Requests: []core.Request{{UserID: 1, MaxRatio: 8}, {UserID: 2, MaxRatio: 8}},
		Region: measurement.Region{
			Coeff: [][]float64{{1, 1}, {0, 0.5}},
			Bound: []float64{10, -0.2},
			Cells: []int{0, 1},
		},
	}
	const maxRatio = 16
	for _, tc := range []struct {
		name   string
		ratios []int
		ok     bool
	}{
		{"recorded", []int{8, 0}, true},
		{"zero", []int{0, 0}, true},
		{"row overrun", []int{8, 3}, false},
		{"loads the over-budget cell", []int{1, 1}, false},
		{"above the request cap", []int{9, 0}, false},
		{"negative", []int{-1, 0}, false},
		{"wrong length", []int{8}, false},
	} {
		err := checkGrant(p, maxRatio, tc.ratios)
		if (err == nil) != tc.ok {
			t.Errorf("%s %v: err = %v, want ok = %v", tc.name, tc.ratios, err, tc.ok)
		}
	}
	// A row may overshoot its bound by the solver's own tolerance, no more.
	for _, tc := range []struct {
		over float64
		ok   bool
	}{{5e-8, true}, {2e-7, false}} {
		q := &replay.Problem{
			Requests: []core.Request{{UserID: 1, MaxRatio: 8}},
			Region:   measurement.Region{Coeff: [][]float64{{1}}, Bound: []float64{3 - tc.over}, Cells: []int{0}},
		}
		if err := checkGrant(q, maxRatio, []int{3}); (err == nil) != tc.ok {
			t.Errorf("overshoot %g: err = %v, want ok = %v", tc.over, err, tc.ok)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"jabasd/internal/cellular.(*HexLayout).NearestCellSq": "cellular",
		"jabasd/internal/core.(*JABASD).Schedule":             "core",
		"jabasd/internal/lp.(*Solver).Solve":                  "ilp",
		"jabasd/internal/checkpoint.(*Writer).U64":            "other",
		"net.(*netFD).Read":                                   "nethttp",
		"syscall.Syscall":                                     "nethttp",
		"reflect.Value.Field":                                 "json",
		"sync.(*Mutex).Lock":                                  "runtime",
		"main.(*oracleBench).post":                            "other",
		"gcBgMarkWorker":                                      "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestIdealTimelineDropsGeneratorLateness(t *testing.T) {
	const period = time.Millisecond
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	// One connection, 0.5 ms answers. Request 1 was sent 2 ms late by an
	// oversleeping timer: on the ideal timeline it still starts when due.
	sendAt := []time.Duration{0, ms(3), ms(3.5)}
	rtt := []time.Duration{ms(0.5), ms(0.5), ms(0.5)}
	lat, late := idealTimeline(period, 1, sendAt, rtt)
	for i, want := range []float64{0.5, 0.5, 0.5} {
		if math.Abs(lat[i]-want) > 1e-9 {
			t.Errorf("latency[%d] = %g ms, want %g", i, lat[i], want)
		}
	}
	if math.Abs(late[1]-2) > 1e-9 {
		t.Errorf("lateness[1] = %g ms, want 2", late[1])
	}
	// A 2.5 ms answer makes the next request queue behind it: that counts.
	rtt[0] = ms(2.5)
	lat, _ = idealTimeline(period, 1, sendAt, rtt)
	if want := 2.5 - 1 + 0.5; math.Abs(lat[1]-want) > 1e-9 {
		t.Errorf("queued latency = %g ms, want %g", lat[1], want)
	}
	// With a second connection it does not.
	lat, _ = idealTimeline(period, 2, sendAt, rtt)
	if math.Abs(lat[1]-0.5) > 1e-9 {
		t.Errorf("latency with a free second connection = %g ms, want 0.5", lat[1])
	}
}

func TestLadderIsFixedAndIncreasing(t *testing.T) {
	for i := 1; i < len(ladder); i++ {
		if ladder[i] <= ladder[i-1] {
			t.Fatalf("ladder not increasing at %d: %v", i, ladder[i-1:i+1])
		}
	}
	if got := highestAtMost(ladder, ladder[5]+0.5); got != 5 {
		t.Errorf("highestAtMost = %d, want 5", got)
	}
	if got := highestAtMost(ladder, 1); got != -1 {
		t.Errorf("highestAtMost below the ladder = %d, want -1", got)
	}
}

func TestSegmentPercentileIgnoresOneSlowWindow(t *testing.T) {
	// 10 windows of 2000 samples at 1 ms; one window is a 50 ms stall.
	const n = 20000
	xs, at := make([]float64, n), make([]time.Duration, n)
	for i := range xs {
		at[i] = time.Duration(i) * time.Millisecond
		xs[i] = 1
		if i >= 4000 && i < 6000 {
			xs[i] = 50
		}
	}
	end := time.Duration(n) * time.Millisecond
	if got, _ := percentile(xs, 0.99); got != 50 {
		t.Fatalf("whole-run p99 = %g, want the stall's 50", got)
	}
	got, err := segmentPercentile(xs, at, end, 0.99)
	if err != nil || got != 1 {
		t.Errorf("window-median p99 = %g, %v; want 1", got, err)
	}
	if _, err := segmentPercentile(xs[:500], at[:500], end/40, 0.99); err == nil {
		t.Error("a p99 of 500 samples was not refused")
	}
	if r := segmentRate(at, end); math.Abs(r-1000) > 1e-9 {
		t.Errorf("segmentRate = %g/s, want 1000", r)
	}
}
