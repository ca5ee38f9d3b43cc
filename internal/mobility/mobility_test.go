package mobility

import (
	"math"
	"testing"

	"jabasd/internal/race"
	"jabasd/internal/rng"
)

var region = Region{Width: 5000, Height: 4000}

// oneUser returns a one-user batch seeded from rng.New(seed).
func oneUser(seed uint64, minSpeed, maxSpeed, maxPause float64) *WaypointBatch {
	b := NewWaypointBatch(region, minSpeed, maxSpeed, maxPause, 1)
	b.SeedUser(0, rng.New(seed))
	return b
}

func TestRandomWaypointStaysInRegion(t *testing.T) {
	b := oneUser(1, 1, 20, 5)
	for i := 0; i < 10000; i++ {
		b.Advance(0, 1)
		p := b.Position(0)
		if p.X < 0 || p.X > region.Width || p.Y < 0 || p.Y > region.Height {
			t.Fatalf("position out of region: %+v", p)
		}
	}
}

func TestRandomWaypointTravelledMatchesSpeed(t *testing.T) {
	b := oneUser(2, 10, 10, 0) // fixed speed, no pause
	total := 0.0
	for i := 0; i < 1000; i++ {
		total += b.Advance(0, 0.5)
	}
	// With no pauses and fixed speed 10 m/s over 500 s, distance = 5000 m.
	if math.Abs(total-5000) > 1 {
		t.Errorf("travelled %v m, want ~5000", total)
	}
}

func TestRandomWaypointSpeedBounds(t *testing.T) {
	b := oneUser(3, 3, 14, 2)
	for i := 0; i < 5000; i++ {
		b.Advance(0, 0.7)
		if s := b.speed[0]; b.travelling[0] && (s < 3 || s > 14) {
			t.Fatalf("speed out of bounds: %v", s)
		}
	}
}

func TestRandomWaypointPauses(t *testing.T) {
	b := oneUser(4, 5, 5, 10)
	sawPause := false
	for i := 0; i < 20000 && !sawPause; i++ {
		b.Advance(0, 0.5)
		if !b.travelling[0] {
			sawPause = true
		}
	}
	if !sawPause {
		t.Error("random waypoint user never paused")
	}
}

// TestRandomWaypointDegenerateSpeed: a zero-speed user never moves over one
// long step, and backwards speed bounds are clamped so that no speed is
// negative.
func TestRandomWaypointDegenerateSpeed(t *testing.T) {
	b := oneUser(5, 0, 0, 0)
	p0 := b.Position(0)
	if d := b.Advance(0, 100); d != 0 {
		t.Errorf("zero-speed user travelled %v", d)
	}
	if b.Position(0) != p0 {
		t.Errorf("zero-speed user moved from %v to %v", p0, b.Position(0))
	}
	b2 := oneUser(6, -5, -10, 0)
	b2.Advance(0, 1)
	if b2.speed[0] < 0 {
		t.Error("speed should never be negative")
	}
}

// TestWaypointBatchZeroSpeed: a zero-speed user with pauses enabled never
// moves over many 20 ms frames.
func TestWaypointBatchZeroSpeed(t *testing.T) {
	region := Region{Width: 100, Height: 100}
	b := NewWaypointBatch(region, 0, 0, 5, 1)
	b.SeedUser(0, rng.New(5))
	p0 := b.Position(0)
	for i := 0; i < 100; i++ {
		if d := b.Advance(0, 0.02); d != 0 {
			t.Fatalf("zero-speed user travelled %v", d)
		}
	}
	if b.Position(0) != p0 {
		t.Fatalf("zero-speed user moved from %v to %v", p0, b.Position(0))
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a, b := oneUser(77, 1, 20, 5), oneUser(77, 1, 20, 5)
	for i := 0; i < 1000; i++ {
		a.Advance(0, 0.5)
		b.Advance(0, 0.5)
		if a.Position(0) != b.Position(0) {
			t.Fatal("same seed produced different trajectories")
		}
	}
}

// TestWaypointBatchAdvanceAllocationFree gates the SoA mobility kernel:
// Advance mutates only the batch's flat arrays (including re-targeting
// transitions), so it must never allocate. Skips under -race, whose runtime
// allocates on its own.
func TestWaypointBatchAdvanceAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	region := Region{Width: 500, Height: 500}
	const users = 8
	parent := rng.New(3)
	batch := NewWaypointBatch(region, 1, 14, 0.2, users)
	for u := 0; u < users; u++ {
		batch.SeedUser(u, parent.Split(uint64(u)))
	}
	if allocs := testing.AllocsPerRun(200, func() {
		for u := 0; u < users; u++ {
			batch.Advance(u, 0.5)
		}
	}); allocs != 0 {
		t.Errorf("WaypointBatch.Advance allocated %v times per frame, want 0", allocs)
	}
}
