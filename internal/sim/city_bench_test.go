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

// BenchmarkCityFrame measures the city-scale frame loop — 1027 cells,
// 102,700 data users — reporting frames/sec, inline (par-1, the single-core
// baseline) and on the auto-sized frame pool (par-0, GOMAXPROCS workers) of
// the same byte-identical computation: the ratio of the two frames/sec
// numbers is the multicore scaling of the per-user physics and the per-cell
// solve fan-out. Engine construction (populating ~123k users) happens
// outside the timer; the loop drives whole frames through the same step()
// the Run loop calls.
func BenchmarkCityFrame(b *testing.B) {
	for _, par := range []int{1, 0} {
		b.Run(fmt.Sprintf("par-%d", par), func(b *testing.B) {
			cfg := cityConfig()
			cfg.FrameParallel = par
			e, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			// One untimed frame settles the per-user buffers and first-frame
			// draws, so the timed frames are steady state.
			e.now = 0
			e.step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.now = float64(e.frame) * cfg.FrameLength
				e.step()
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
