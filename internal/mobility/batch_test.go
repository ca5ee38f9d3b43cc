package mobility

import (
	"testing"

	"jabasd/internal/race"

	"jabasd/internal/rng"
)

// TestWaypointBatchMatchesScalar pins the SoA batch bit-for-bit against
// per-user RandomWaypoint models seeded from identical substreams, across
// enough frames to cross several travel/pause/re-target transitions.
func TestWaypointBatchMatchesScalar(t *testing.T) {
	region := Region{Width: 4000, Height: 3500}
	const users = 8
	parent := rng.New(31)
	scalars := make([]*RandomWaypoint, users)
	for u := 0; u < users; u++ {
		scalars[u] = NewRandomWaypoint(parent.Split(uint64(u)), region, 1, 14, 3)
	}
	parent.Reseed(31)
	batch := NewWaypointBatch(region, 1, 14, 3, users)
	for u := 0; u < users; u++ {
		batch.SeedUser(u, parent.Split(uint64(u)))
	}
	for u := 0; u < users; u++ {
		if batch.Position(u) != scalars[u].Position() {
			t.Fatalf("user %d: initial position %v != %v", u, batch.Position(u), scalars[u].Position())
		}
	}
	for f := 0; f < 20000; f++ {
		for u := 0; u < users; u++ {
			st := scalars[u].Advance(0.02)
			bt := batch.Advance(u, 0.02)
			if st != bt {
				t.Fatalf("user %d frame %d: travelled %v != %v", u, f, bt, st)
			}
			if batch.Position(u) != scalars[u].Position() {
				t.Fatalf("user %d frame %d: position %v != %v", u, f, batch.Position(u), scalars[u].Position())
			}
			if batch.speed[u] != scalars[u].speed || batch.travelling[u] != scalars[u].travelling {
				t.Fatalf("user %d frame %d: speed %v (travelling %v) != %v (%v)", u, f,
					batch.speed[u], batch.travelling[u], scalars[u].speed, scalars[u].travelling)
			}
		}
	}
}

// TestWaypointBatchZeroSpeed mirrors the scalar model's degenerate
// zero-speed behaviour: the user never moves.
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
