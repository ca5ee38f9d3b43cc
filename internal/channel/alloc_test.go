package channel_test

import (
	"testing"

	"jabasd/internal/channel"
	"jabasd/internal/race"
	"jabasd/internal/rng"
)

// TestBatchAdvanceAllocationFree is the allocation-regression gate for the
// SoA channel kernels: both advance kernels operate entirely inside the
// batch's flat arrays and the caller's distance row, so after seeding they
// must never allocate. It skips
// itself under -race, whose runtime allocates on its own.
func TestBatchAdvanceAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const users, cells = 4, 7
	pl := channel.DefaultPathLoss()
	batch := channel.NewBatch(users, cells, pl, 8, 50)
	parent := rng.New(7)
	row := make([]float64, cells)
	for k := range row {
		row[k] = 100 + float64(50*k)
	}
	for u := 0; u < users; u++ {
		batch.SeedUser(u, parent.Split(uint64(1000+u)), 10)
		batch.AdvanceExact(u, row, 1) // initial draw
	}
	if allocs := testing.AllocsPerRun(50, func() {
		for u := 0; u < users; u++ {
			batch.AdvanceExact(u, row, 0.5)
		}
	}); allocs != 0 {
		t.Errorf("AdvanceExact allocated %v times per frame, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		for u := 0; u < users; u++ {
			batch.AdvanceFast(u, row, 0.5)
		}
	}); allocs != 0 {
		t.Errorf("AdvanceFast allocated %v times per frame, want 0", allocs)
	}
}
