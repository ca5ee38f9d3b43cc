package rng

import (
	"testing"

	"jabasd/internal/race"
)

// TestJakesBatchMatchesScalar pins the SoA batch bit-for-bit against the
// per-user Jakes generators when both are seeded from identical substreams:
// the differential gate the engine's exact mode relies on.
func TestJakesBatchMatchesScalar(t *testing.T) {
	const users, n, fd = 9, 16, 55.0
	parent := New(77)
	scalars := make([]*Jakes, users)
	batch := NewJakesBatch(users, n, fd)
	for u := 0; u < users; u++ {
		src := parent.Split(uint64(u))
		scalars[u] = NewJakes(src, n, fd)
	}
	parent.Reseed(77)
	// Reconstruct the identical substreams for the batch. Split draws from
	// the parent, so the replay below must mirror the loop above exactly.
	for u := 0; u < users; u++ {
		src := parent.Split(uint64(u))
		batch.SeedUser(u, src)
	}
	for u := 0; u < users; u++ {
		for f := 0; f < 50; f++ {
			tt := float64(f) * 0.02
			si, sq := scalars[u].GainAt(tt)
			bi, bq := batch.GainAt(u, tt)
			if si != bi || sq != bq {
				t.Fatalf("user %d t=%v: batch gain (%v,%v) != scalar (%v,%v)", u, tt, bi, bq, si, sq)
			}
			if sp, bp := scalars[u].PowerAt(tt), batch.PowerAt(u, tt); sp != bp {
				t.Fatalf("user %d t=%v: batch power %v != scalar %v", u, tt, bp, sp)
			}
		}
	}
}

// TestJakesBatchOscillatorPromotion mirrors NewJakes' n < 1 -> 8 promotion.
func TestJakesBatchOscillatorPromotion(t *testing.T) {
	b := NewJakesBatch(2, 0, 10)
	if b.n != 8 {
		t.Fatalf("oscillators = %d, want 8", b.n)
	}
	if b.fd != 10 {
		t.Fatalf("Doppler = %v, want 10", b.fd)
	}
}

// TestJakesBatchPowerAtAllocationFree gates the SoA fading kernel: PowerAt
// reads the per-user oscillator banks in place and must never allocate.
// Skips under -race, whose runtime allocates on its own.
func TestJakesBatchPowerAtAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const users = 8
	parent := New(5)
	batch := NewJakesBatch(users, 16, 55)
	for u := 0; u < users; u++ {
		batch.SeedUser(u, parent.Split(uint64(u)))
	}
	if allocs := testing.AllocsPerRun(200, func() {
		for u := 0; u < users; u++ {
			batch.PowerAt(u, 1.25)
		}
	}); allocs != 0 {
		t.Errorf("JakesBatch.PowerAt allocated %v times per call set, want 0", allocs)
	}
}
