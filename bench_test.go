// Package jabasd_bench contains the benchmark harness that regenerates every
// experiment of the evaluation (the registered suite E1-E14): one
// BenchmarkExperiments/E<n> sub-benchmark per registry entry, plus
// micro-benchmarks for the hot paths (per-frame scheduling and the dynamic
// simulator; the LP/ILP solver benchmarks live in internal/lp and
// internal/ilp). Benchmarks run a reduced experiment scale so that
// `go test -bench=. -benchmem` finishes in minutes; `jabaexp -scale full`
// produces the full-scale tables.
package jabasd_bench

import (
	"context"
	"math"
	"testing"

	"jabasd/internal/core"
	"jabasd/internal/experiments"
	"jabasd/internal/load"
	"jabasd/internal/measurement"
	"jabasd/internal/rng"
	"jabasd/internal/sim"
	"jabasd/internal/vtaoc"
)

// benchScale is a reduced scale so that the full benchmark suite stays fast.
var benchScale = experiments.Scale{
	Name:         "bench",
	SimTime:      6,
	WarmupTime:   1,
	Rings:        1,
	Replications: 1,
	LoadPoints:   []int{4, 10},
}

// ---------------------------------------------------------------------------
// Experiment benchmarks (E1-E14): one per table/figure of the evaluation.
// ---------------------------------------------------------------------------

// BenchmarkExperiments runs every registered experiment at benchScale, one
// sub-benchmark per id.
func BenchmarkExperiments(b *testing.B) {
	for _, d := range experiments.Registry() {
		b.Run(d.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Run(context.Background(), benchScale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for the design choices called out in docs/ARCHITECTURE.md.
// ---------------------------------------------------------------------------

// BenchmarkAblationExactVsGreedyScheduler compares the per-frame cost of the
// exact branch-and-bound JABA-SD against the greedy variant on a realistic
// frame (8 concurrent requests, 3 binding cells). Both schedulers run warm
// (owned solver arenas and scratch), so the steady-state numbers are what
// the frame loop pays.
func BenchmarkAblationExactVsGreedyScheduler(b *testing.B) {
	p := syntheticProblem(8, 3, 12345)
	b.Run("exact", func(b *testing.B) {
		s := core.NewJABASD()
		s.GreedyFallbackSize = 0 // force exact
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Schedule(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		s := &core.GreedyJABASD{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Schedule(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fcfs", func(b *testing.B) {
		s := &core.FCFS{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Schedule(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAdaptiveVsFixedPHY measures the cost of the adaptive
// throughput computation against the fixed-rate baseline.
func BenchmarkAblationAdaptiveVsFixedPHY(b *testing.B) {
	coder := vtaoc.MustNew(vtaoc.DefaultConfig())
	fixed, err := vtaoc.NewFixedRate(coder, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("adaptive", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += coder.AverageThroughput(float64(i%40) - 5)
		}
		_ = s
	})
	b.Run("fixed", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += fixed.AverageThroughput(float64(i%40) - 5)
		}
		_ = s
	})
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the substrates.
// ---------------------------------------------------------------------------

func BenchmarkVTAOCAverageThroughput(b *testing.B) {
	coder := vtaoc.MustNew(vtaoc.DefaultConfig())
	b.ReportAllocs()
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += coder.AverageThroughput(float64(i%35) - 5)
	}
	_ = s
}

// BenchmarkVTAOCAverageThroughputTabulated measures the same sweep through
// the opt-in lookup table (linear interpolation on the documented CSI grid).
func BenchmarkVTAOCAverageThroughputTabulated(b *testing.B) {
	coder := vtaoc.MustNew(vtaoc.DefaultConfig())
	coder.Tabulate()
	b.ReportAllocs()
	b.ResetTimer()
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += coder.AverageThroughput(float64(i%35) - 5)
	}
	_ = s
}

func BenchmarkForwardRegion(b *testing.B) {
	src := rng.New(9)
	nd := 8
	reqs := make([]measurement.ForwardRequest, nd)
	for j := 0; j < nd; j++ {
		reqs[j] = measurement.ForwardRequest{
			UserID:   j,
			FCHPower: load.FromMap(map[int]float64{j % 3: src.Uniform(0.1, 1), (j + 1) % 3: src.Uniform(0.1, 1)}),
			Alpha:    1,
		}
	}
	state := measurement.ForwardState{CurrentLoad: []float64{10, 12, 8}, MaxLoad: 20, GammaS: 1.25}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := measurement.ForwardRegion(state, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicSimulationFrameRate measures whole-replication cost and
// reports the achieved frame rate ("frames/sec") for two presets: the quick
// unit-test scenario and the contended metro scenario (37 small cells, 30
// data + 12 voice users per cell) whose frame rate is the headline number
// of the batched-physics optimisation.
func BenchmarkDynamicSimulationFrameRate(b *testing.B) {
	quick := sim.DefaultConfig()
	quick.Rings = 1
	quick.SimTime = 4
	quick.WarmupTime = 1
	quick.DataUsersPerCell = 6
	quick.VoiceUsersPerCell = 4

	metro := sim.DefaultConfig()
	metro.Rings = 3 // 37 cells
	metro.CellRadius = 600
	metro.DataUsersPerCell = 30
	metro.VoiceUsersPerCell = 12
	metro.SimTime = 1
	metro.WarmupTime = 0.25

	for _, sc := range []struct {
		name string
		cfg  sim.Config
	}{{"quick", quick}, {"metro", metro}} {
		b.Run(sc.name, func(b *testing.B) {
			cfg := sc.cfg
			frames := int(math.Ceil(cfg.SimTime / cfg.FrameLength))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := sim.Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(frames*b.N)/b.Elapsed().Seconds(), "frames/sec")
		})
	}
}

func BenchmarkParallelReplications(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Rings = 1
	cfg.SimTime = 3
	cfg.WarmupTime = 1
	cfg.DataUsersPerCell = 4
	cfg.VoiceUsersPerCell = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunReplications(context.Background(), cfg, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticProblem builds a reproducible admission problem for benchmarks.
func syntheticProblem(nd, cells int, seed uint64) core.Problem {
	src := rng.New(seed)
	reqs := make([]core.Request, nd)
	fwd := make([]measurement.ForwardRequest, nd)
	for j := 0; j < nd; j++ {
		reqs[j] = core.Request{
			UserID:        j,
			SizeBits:      src.Uniform(1e5, 2e6),
			WaitingTime:   src.Uniform(0, 12),
			AvgThroughput: src.Uniform(0.05, 1),
			MaxRatio:      16,
		}
		powers := map[int]float64{}
		powers[src.Intn(cells)] = src.Uniform(0.1, 1)
		powers[src.Intn(cells)] = src.Uniform(0.1, 1)
		fwd[j] = measurement.ForwardRequest{UserID: j, FCHPower: load.FromMap(powers), Alpha: 1}
	}
	cellLoad := make([]float64, cells)
	for k := range cellLoad {
		cellLoad[k] = src.Uniform(5, 15)
	}
	region, err := measurement.ForwardRegion(measurement.ForwardState{
		CurrentLoad: cellLoad, MaxLoad: 20, GammaS: 1.25,
	}, fwd)
	if err != nil {
		panic(err)
	}
	return core.Problem{
		Requests:  reqs,
		Region:    region,
		MaxRatio:  16,
		Objective: core.DefaultObjective(),
	}
}

// BenchmarkSnapshotFrameAdmission measures the tentpole of the snapshot
// frame mode: the whole frame loop (measurement, admission, service) on the
// contended scenarios, sequential vs snapshot at 1 and 8 solve workers.
// snapshot-1 vs sequential isolates the semantic change (it should be cost
// neutral); snapshot-8 vs snapshot-1 is the multicore win from fanning the
// per-cell region builds and ILP solves (plus the per-user measurement
// updates) out over the pool.
func BenchmarkSnapshotFrameAdmission(b *testing.B) {
	heavy := sim.DefaultConfig()
	heavy.SimTime = 2
	heavy.WarmupTime = 0.5
	heavy.DataUsersPerCell = 20 // the heavy-load preset's density, 19 cells

	metro := sim.DefaultConfig()
	metro.Rings = 3 // 37 cells
	metro.CellRadius = 600
	metro.DataUsersPerCell = 30
	metro.VoiceUsersPerCell = 12
	metro.SimTime = 1
	metro.WarmupTime = 0.25

	scenarios := []struct {
		name string
		cfg  sim.Config
	}{{"heavy-load", heavy}, {"metro", metro}}
	for _, sc := range scenarios {
		if testing.Short() && sc.name == "metro" {
			continue
		}
		modes := []struct {
			name     string
			mode     sim.FrameMode
			parallel int
		}{
			{"sequential", sim.FrameSequential, 0},
			{"snapshot-1", sim.FrameSnapshot, 1},
			{"snapshot-8", sim.FrameSnapshot, 8},
		}
		for _, md := range modes {
			b.Run(sc.name+"/"+md.name, func(b *testing.B) {
				cfg := sc.cfg
				cfg.FrameMode = md.mode
				cfg.FrameParallel = md.parallel
				frames := int(math.Ceil(cfg.SimTime / cfg.FrameLength))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfg.Seed = uint64(i + 1)
					if _, err := sim.Run(context.Background(), cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(frames*b.N)/b.Elapsed().Seconds(), "frames/sec")
			})
		}
	}
}
