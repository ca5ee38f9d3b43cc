package sim

import (
	"context"
	"runtime"
	"testing"

	"jabasd/internal/race"
)

// maxLiveBytesPerDataUser bounds the live heap of a small windowed engine
// per data user: the measured 2710 B (go1.24, amd64) plus a 10% margin.
// At city scale (about 100k data users) every byte here is about 0.1 MiB
// of heap, so a field or a per-user allocation that creeps back in fails
// this test. Lower the bound when a change shrinks the layout.
const maxLiveBytesPerDataUser = 2981

// TestLiveHeapPerDataUser builds and runs a small windowed engine (37
// cells, a 24-cell window, 40 data users per cell, no voice users) and
// bounds the live heap it holds after a collection, per data user.
func TestLiveHeapPerDataUser(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime changes heap accounting")
	}
	cfg := DefaultConfig()
	cfg.Rings = 3
	cfg.PilotCells = 24
	cfg.DataUsersPerCell = 40
	cfg.VoiceUsersPerCell = 0
	cfg.SimTime = 0.2
	cfg.WarmupTime = 0
	cfg.FrameParallel = 1

	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := live()
	users := len(e.users)
	runtime.KeepAlive(e)
	perUser := float64(after-before) / float64(users)
	t.Logf("%d data users, %.0f live bytes each", users, perUser)
	if perUser > maxLiveBytesPerDataUser {
		t.Fatalf("%.0f live bytes per data user, bound %d", perUser, maxLiveBytesPerDataUser)
	}
}

// maxAllocsPerVoiceUser bounds NewEngine's heap allocations per voice user:
// its activity model and that model's draw stream (2), with a margin for
// the amortised growth of the engine's shared slices. Voice mobility lives
// in the engine's waypoint batch, so a per-user mobility object or stream
// that creeps back in fails this test.
const maxAllocsPerVoiceUser = 2.5

// TestNewEngineAllocsPerVoiceUser builds the 19-cell default engine with 20
// and with 0 voice users per cell, inline (FrameParallel 1), and bounds the
// difference in NewEngine's allocations per voice user.
func TestNewEngineAllocsPerVoiceUser(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	// allocs returns NewEngine's allocations and the voice user count.
	allocs := func(perCell int) (float64, int) {
		cfg := DefaultConfig()
		cfg.VoiceUsersPerCell = perCell
		cfg.FrameParallel = 1
		voice := 0
		n := testing.AllocsPerRun(5, func() {
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			voice = len(e.voice)
			e.Close()
		})
		return n, voice
	}
	with, voice := allocs(20)
	without, _ := allocs(0)
	perUser := (with - without) / float64(voice)
	t.Logf("%d voice users, %.2f NewEngine allocations each", voice, perUser)
	if perUser > maxAllocsPerVoiceUser {
		t.Fatalf("%.2f NewEngine allocations per voice user, bound %v", perUser, maxAllocsPerVoiceUser)
	}
}
