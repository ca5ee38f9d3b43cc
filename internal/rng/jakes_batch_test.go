package rng

import (
	"fmt"
	"math"
	"testing"

	"jabasd/internal/race"
)

// jakesRef is the Jakes fading sum written out with math.Cos, one
// oscillator at a time: SeedUser's draw order and GainAt's index-order
// sums, with no kernel in between.
type jakesRef struct {
	wI, wQ, phI, phQ []float64
}

func newJakesRef(src *Source, n int, fd float64) jakesRef {
	r := jakesRef{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		alphaI := src.Uniform(0, 2*math.Pi)
		alphaQ := src.Uniform(0, 2*math.Pi)
		r.wI[i] = 2 * math.Pi * fd * math.Cos(alphaI)
		r.wQ[i] = 2 * math.Pi * fd * math.Cos(alphaQ)
		r.phI[i] = src.Uniform(0, 2*math.Pi)
		r.phQ[i] = src.Uniform(0, 2*math.Pi)
	}
	return r
}

func (r jakesRef) gainAt(t float64) (i, q float64) {
	norm := math.Sqrt(1 / float64(len(r.wI)))
	for k := range r.wI {
		i += math.Cos(r.wI[k]*t + r.phI[k])
		q += math.Cos(r.wQ[k]*t + r.phQ[k])
	}
	return i * norm, q * norm
}

// requireJakesRef fails unless user u of b holds ref's oscillators and
// returns ref's gain and power bits at every time in ts.
func requireJakesRef(t *testing.T, what string, b *JakesBatch, u int, ref jakesRef, ts []float64) {
	t.Helper()
	w, phi := b.user(u)
	n := b.n
	for k := 0; k < n; k++ {
		if !sameBits(w[k], ref.wI[k]) || !sameBits(w[n+k], ref.wQ[k]) ||
			!sameBits(phi[k], ref.phI[k]) || !sameBits(phi[n+k], ref.phQ[k]) {
			t.Fatalf("%s: user %d oscillator %d: seeded (%v,%v,%v,%v), reference (%v,%v,%v,%v)", what, u, k,
				w[k], w[n+k], phi[k], phi[n+k], ref.wI[k], ref.wQ[k], ref.phI[k], ref.phQ[k])
		}
	}
	for _, tt := range ts {
		gi, gq := b.GainAt(u, tt)
		ri, rq := ref.gainAt(tt)
		if !sameBits(gi, ri) || !sameBits(gq, rq) {
			t.Fatalf("%s: user %d t=%v: gain (%v,%v), reference (%v,%v)", what, u, tt, gi, gq, ri, rq)
		}
		if p, rp := b.PowerAt(u, tt), ri*ri+rq*rq; !sameBits(p, rp) {
			t.Fatalf("%s: user %d t=%v: power %v, reference %v", what, u, tt, p, rp)
		}
	}
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestJakesBatchMatchesCosReference holds SeedUser, GainAt and PowerAt to
// jakesRef bit for bit, at t = 0, frame times, 10^3 s and 10^5 s, for
// oscillator counts with and without a tail block and above GainAt's
// 32-lane chunk. It then forces one oscillator's argument just below, at
// and above 2^29 (math.Cos's Payne-Hanek threshold) or to a non-finite
// value, at every lane position of a block and in the tail, in the
// in-phase and the quadrature bank.
func TestJakesBatchMatchesCosReference(t *testing.T) {
	ts := []float64{0, 0.002, 0.5, 1.998, 20.002, 250, 1e3, 1e3 + 0.002, 1e5, 1e5 + 0.25}
	for _, n := range []int{16, 15, 3, 33, 70} {
		const users, fd = 5, 55.0
		parent := New(uint64(77 + n))
		batch := NewJakesBatch(users, n, fd)
		refs := make([]jakesRef, users)
		for u := 0; u < users; u++ {
			src := parent.Split(uint64(u))
			twin := *src
			batch.SeedUser(u, src)
			refs[u] = newJakesRef(&twin, n, fd)
		}
		for u := 0; u < users; u++ {
			requireJakesRef(t, fmt.Sprintf("n=%d", n), batch, u, refs[u], ts)
		}
	}

	const n = 15 // 3 blocks and a 3-lane tail per bank
	specials := []float64{math.Nextafter(1<<29, 0), 1 << 29, math.Nextafter(1<<29, math.Inf(1)),
		-(1 << 29), math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, x := range specials {
		for pos := 0; pos < 2*n; pos++ {
			batch := NewJakesBatch(1, n, 55)
			src := New(uint64(pos))
			twin := *src
			batch.SeedUser(0, src)
			ref := newJakesRef(&twin, n, 55)
			// A zero Doppler makes the argument the phase at every finite t.
			batch.w[pos], batch.phi[pos] = 0, x
			if pos < n {
				ref.wI[pos], ref.phI[pos] = 0, x
			} else {
				ref.wQ[pos-n], ref.phQ[pos-n] = 0, x
			}
			requireJakesRef(t, fmt.Sprintf("x=%v@%d", x, pos), batch, 0, ref, ts)
		}
	}
}

// TestJakesBatchOscillatorPromotion pins NewJakesBatch's n < 1 -> 8 promotion.
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

// BenchmarkJakesBatchPowerAt times one user's fading power at the
// engine's 16 oscillators per component, at frame times past 250 s.
func BenchmarkJakesBatchPowerAt(b *testing.B) {
	const users = 64
	parent := New(5)
	batch := NewJakesBatch(users, 16, 55)
	for u := 0; u < users; u++ {
		batch.SeedUser(u, parent.Split(uint64(u)))
	}
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += batch.PowerAt(i%users, 250+0.002*float64(i/users))
	}
	if sink == 0 {
		b.Fatal("zero fading power")
	}
}
