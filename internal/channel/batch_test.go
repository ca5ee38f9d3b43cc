package channel_test

import (
	"math"
	"testing"

	"jabasd/internal/channel"
	"jabasd/internal/rng"
)

// seedPair builds a scalar per-(user,cell) Link array and a Batch from
// identical substreams, mirroring how the engine splits its shadowing
// sources: user u's cell-k stream is userSrc.Split(base+k).
func seedPair(t *testing.T, users, cells int, seed uint64) ([][]*channel.Link, *channel.Batch) {
	t.Helper()
	pl := channel.DefaultPathLoss()
	const sigma, decorr = 8.0, 50.0

	parent := rng.New(seed)
	links := make([][]*channel.Link, users)
	for u := 0; u < users; u++ {
		userSrc := parent.Split(uint64(1000 + u))
		links[u] = make([]*channel.Link, cells)
		for k := 0; k < cells; k++ {
			shadowSrc := userSrc.Split(uint64(10 + k))
			links[u][k] = &channel.Link{
				PathLoss: pl,
				Shadow:   channel.NewShadowing(shadowSrc, sigma, decorr),
			}
		}
	}
	parent.Reseed(seed)
	batch := channel.NewBatch(users, cells, pl, sigma, decorr)
	for u := 0; u < users; u++ {
		userSrc := parent.Split(uint64(1000 + u))
		batch.SeedUser(u, userSrc, 10)
	}
	return links, batch
}

// TestBatchAdvanceExactMatchesLink is the differential gate behind the
// engine's -exact-vtaoc mode: the batched exact kernel must reproduce the
// scalar Link.Update chain bit for bit over many frames, including
// zero-travel (paused) frames where the batch only discards draws.
func TestBatchAdvanceExactMatchesLink(t *testing.T) {
	const users, cells = 6, 7
	links, batch := seedPair(t, users, cells, 42)
	step := rng.New(5)
	for f := 0; f < 500; f++ {
		for u := 0; u < users; u++ {
			travelled := 0.0
			if step.Float64() < 0.8 {
				travelled = step.Uniform(0, 3)
			}
			row := make([]float64, cells)
			for k := 0; k < cells; k++ {
				row[k] = step.Uniform(5, 4000)
			}
			paused := travelled == 0 && batch.Ready(u)
			var before []float64
			if paused {
				before = append(before[:0], batch.GainRow(u)...)
				batch.AdvancePausedExact(u)
			} else {
				batch.AdvanceExact(u, row, travelled)
			}
			for k := 0; k < cells; k++ {
				links[u][k].Update(row[k], travelled)
				var want float64
				if paused {
					// The scalar link re-derives the gain from the (changed)
					// distance even when paused; the engine only skips the
					// recompute because it reuses the previous distances too.
					// Compare against the previous gain instead.
					want = before[k]
				} else {
					want = math.Pow(10, links[u][k].LongTermGainDB()/10)
				}
				if got := batch.GainRow(u)[k]; got != want && !paused {
					t.Fatalf("frame %d user %d cell %d: batch gain %v != scalar %v", f, u, k, got, want)
				} else if paused && got != want {
					t.Fatalf("frame %d user %d cell %d: paused gain changed %v -> %v", f, u, k, want, got)
				}
			}
			if paused {
				// The stream must stay aligned: the shadow state equals the
				// scalar links', which advanced with rho = 1.
				for k := 0; k < cells; k++ {
					if batch.ShadowRow(u)[k] != links[u][k].Shadow.CurrentDB() {
						t.Fatalf("frame %d user %d cell %d: paused shadow %v != scalar %v",
							f, u, k, batch.ShadowRow(u)[k], links[u][k].Shadow.CurrentDB())
					}
				}
			}
		}
	}
}

// TestBatchAdvanceFastTracksExact pins the fast kernel's gains to the exact
// model within the documented tolerance when both run on the same shadowing
// trajectory. The fast path draws its own (ziggurat) innovations, so the
// comparison feeds the fast kernel's own shadow state through the exact gain
// formula instead of comparing sample paths.
func TestBatchAdvanceFastTracksExact(t *testing.T) {
	const users, cells = 4, 7
	pl := channel.DefaultPathLoss()
	batch := channel.NewBatch(users, cells, pl, 8, 50)
	parent := rng.New(9)
	for u := 0; u < users; u++ {
		batch.SeedUser(u, parent.Split(uint64(1000+u)), 10)
	}
	step := rng.New(11)
	for f := 0; f < 300; f++ {
		for u := 0; u < users; u++ {
			travelled := step.Uniform(0.01, 3)
			row := make([]float64, cells)
			dists := make([]float64, cells)
			for k := 0; k < cells; k++ {
				dists[k] = step.Uniform(5, 4000)
				row[k] = dists[k] * dists[k] // fast kernel reads squared metres
			}
			batch.AdvanceFast(u, row, travelled)
			for k := 0; k < cells; k++ {
				want := math.Pow(10, (-pl.LossDB(dists[k])+batch.ShadowRow(u)[k])/10)
				got := batch.GainRow(u)[k]
				if rel := math.Abs(got-want) / want; rel > 1e-11 {
					t.Fatalf("frame %d user %d cell %d: fast gain off by %.3e relative", f, u, k, rel)
				}
			}
		}
	}
}

// TestBatchAdvanceFastPausedClean pins the fast path's paused shortcut: a
// zero-travel advance leaves the state unchanged and takes no draws, so a
// batch that paused continues exactly like a twin that never did.
func TestBatchAdvanceFastPausedClean(t *testing.T) {
	const cells = 7
	mk := func() *channel.Batch {
		b := channel.NewBatch(1, cells, channel.DefaultPathLoss(), 8, 50)
		b.SeedUser(0, rng.New(3), 10)
		return b
	}
	batch, twin := mk(), mk()
	row := make([]float64, cells)
	for k := range row {
		row[k] = float64(200+100*k) * float64(200+100*k)
	}
	batch.AdvanceFast(0, row, 1.5)
	twin.AdvanceFast(0, row, 1.5)
	gains := append([]float64(nil), batch.GainRow(0)...)
	shadows := append([]float64(nil), batch.ShadowRow(0)...)
	for i := 0; i < 10; i++ {
		batch.AdvanceFast(0, row, 0)
	}
	for k := 0; k < cells; k++ {
		if batch.GainRow(0)[k] != gains[k] || batch.ShadowRow(0)[k] != shadows[k] {
			t.Fatalf("paused advance mutated state at cell %d", k)
		}
	}
	// Untouched streams: the next moving frame draws what the twin draws.
	batch.AdvanceFast(0, row, 2)
	twin.AdvanceFast(0, row, 2)
	for k := 0; k < cells; k++ {
		if math.Float64bits(batch.ShadowRow(0)[k]) != math.Float64bits(twin.ShadowRow(0)[k]) {
			t.Fatalf("cell %d: shadowing after the pause %v, twin without it %v", k, batch.ShadowRow(0)[k], twin.ShadowRow(0)[k])
		}
	}
}
