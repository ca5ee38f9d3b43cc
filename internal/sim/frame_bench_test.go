package sim

import (
	"fmt"
	"testing"
)

// cityConfig mirrors the scenario "city" preset (scenario imports sim, so
// the preset cannot be looked up from here): an 18-ring wrap-around grid —
// 1027 cells of 500 m radius — with 100 data and 20 voice users per cell,
// windowed physics and the snapshot frame mode.
func cityConfig() Config {
	cfg := DefaultConfig()
	cfg.Rings = 18
	cfg.CellRadius = 500
	cfg.DataUsersPerCell = 100
	cfg.VoiceUsersPerCell = 20
	cfg.FrameMode = FrameSnapshot
	cfg.PilotCells = 24
	return cfg
}

// metroConfig mirrors the scenario "metro" preset: a 3-ring wrap-around
// grid — 37 cells of 600 m radius — with 30 data and 12 voice users per
// cell, full-scan physics and the snapshot frame mode.
func metroConfig() Config {
	cfg := DefaultConfig()
	cfg.Rings = 3
	cfg.CellRadius = 600
	cfg.DataUsersPerCell = 30
	cfg.VoiceUsersPerCell = 12
	cfg.FrameMode = FrameSnapshot
	return cfg
}

// BenchmarkCityFrame measures the city-scale frame loop — 1027 cells,
// 102,700 data users — reporting frames/sec, inline (par-1, the single-core
// baseline) and on the auto-sized frame pool (par-0, GOMAXPROCS workers) of
// the same byte-identical computation: the ratio of the two frames/sec
// numbers is the multicore scaling of the per-user physics and the per-cell
// solve fan-out. Engine construction (populating ~123k users) happens
// outside the timer; one untimed frame settles the per-user buffers and
// first-frame draws, so the timed frames are steady state.
func BenchmarkCityFrame(b *testing.B) { benchmarkFrames(b, cityConfig(), 1) }

// BenchmarkMetroFrame is BenchmarkCityFrame's sibling at metro scale — 37
// cells, 1,110 data users — where a frame is a few short pool passes with
// sequential sections between them, so the ratio of par-0 to par-1
// frames/sec is the cost of handing the passes out and collecting them as
// much as the scaling of the work. The 250 untimed warm-up frames are the
// ones the perfbench metro workload runs, so the queues have built up.
func BenchmarkMetroFrame(b *testing.B) { benchmarkFrames(b, metroConfig(), 250) }

// benchmarkFrames times whole frames of cfg through the same step() the Run
// loop calls, inline (par-1) and on the auto-sized pool (par-0), after
// building the engine and running warmup frames outside the timer.
func benchmarkFrames(b *testing.B, cfg Config, warmup int) {
	for _, par := range []int{1, 0} {
		b.Run(fmt.Sprintf("par-%d", par), func(b *testing.B) {
			cfg.FrameParallel = par
			e, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			step := func() {
				e.now = float64(e.frame) * cfg.FrameLength
				e.step()
			}
			for range warmup {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
		})
	}
}

// BenchmarkNewEngineCity measures building the city engine: the spatial
// index's candidate windows and seeding ~123k users, inline (par-1) and
// with the seeding fanned out over the auto-sized frame pool (par-0).
// Every build is byte-identical; the ratio of the two times is the
// set-up's multicore scaling.
func BenchmarkNewEngineCity(b *testing.B) {
	for _, par := range []int{1, 0} {
		b.Run(fmt.Sprintf("par-%d", par), func(b *testing.B) {
			cfg := cityConfig()
			cfg.FrameParallel = par
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := NewEngine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				e.Close()
			}
		})
	}
}
