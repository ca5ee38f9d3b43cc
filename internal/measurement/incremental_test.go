package measurement

import (
	"testing"

	"jabasd/internal/load"
	"jabasd/internal/rng"
)

// incrementalWorld is the randomized fixture for the incremental-vs-full
// differential property tests: a population of users whose measurements
// evolve over frames with request arrival/departure churn, driven through
// both the incremental cache and fresh full rebuilds.
type incrementalWorld struct {
	src    *rng.Source
	nCells int
	users  int

	fch  []load.Vec // per user, forward FCH ledger
	rev  []load.Vec // per user, reverse FCH received
	scrm []load.Vec
	host []int
	inQ  []bool
	ver  []uint64 // per-user measurement version, bumped on mutation

	loads []float64
}

func newIncrementalWorld(seed uint64, nCells, users int) *incrementalWorld {
	w := &incrementalWorld{
		src:    rng.New(seed),
		nCells: nCells,
		users:  users,
		fch:    make([]load.Vec, users),
		rev:    make([]load.Vec, users),
		scrm:   make([]load.Vec, users),
		host:   make([]int, users),
		inQ:    make([]bool, users),
		ver:    make([]uint64, users),
		loads:  make([]float64, nCells),
	}
	for u := 0; u < users; u++ {
		w.fch[u] = load.MakeVec(3)
		w.rev[u] = load.MakeVec(3)
		w.scrm[u] = load.MakeVec(SCRMMaxPilots)
		w.mutateUser(u)
	}
	for k := range w.loads {
		w.loads[k] = w.src.Uniform(1, 5)
	}
	return w
}

// mutateUser re-rolls user u's measurements: host cell, reduced set ledgers
// and SCRM pilots.
func (w *incrementalWorld) mutateUser(u int) {
	w.host[u] = w.src.Intn(w.nCells)
	second := (w.host[u] + 1 + w.src.Intn(w.nCells-1)) % w.nCells
	w.fch[u].Reset()
	w.fch[u].Set(w.host[u], w.src.Uniform(0.01, 1))
	w.fch[u].Set(second, w.src.Uniform(0.01, 1))
	w.rev[u].Reset()
	w.rev[u].Set(w.host[u], w.src.Uniform(0.001, 0.1))
	w.rev[u].Set(second, w.src.Uniform(0.001, 0.1))
	w.scrm[u].Reset()
	w.scrm[u].Set(w.host[u], w.src.Uniform(0.05, 0.5))
	for n := 0; n < 3; n++ {
		w.scrm[u].Set(w.src.Intn(w.nCells), w.src.Uniform(0.001, 0.1))
	}
	w.ver[u]++
}

// stepFrame applies one frame of churn: some users join/leave the queue,
// some users' measurements change, sometimes the ledger moves.
func (w *incrementalWorld) stepFrame() {
	for u := 0; u < w.users; u++ {
		r := w.src.Float64()
		switch {
		case r < 0.15:
			w.inQ[u] = !w.inQ[u] // arrival or departure
		case r < 0.35:
			w.mutateUser(u) // measurements changed
		}
	}
	if w.src.Float64() < 0.3 {
		k := w.src.Intn(w.nCells)
		w.loads[k] = w.src.Uniform(1, 5)
	}
}

// gather builds cell k's request lists (users whose host is k and queued).
func (w *incrementalWorld) gather(k int) (fwd []ForwardRequest, rev []ReverseRequest, vers []uint64) {
	for u := 0; u < w.users; u++ {
		if !w.inQ[u] || w.host[u] != k {
			continue
		}
		fwd = append(fwd, ForwardRequest{UserID: u, FCHPower: w.fch[u], Alpha: 1})
		rev = append(rev, ReverseRequest{
			UserID:       u,
			HostCell:     w.host[u],
			ReversePilot: w.rev[u],
			SCRM:         SCRM{Pilots: w.scrm[u]},
			Zeta:         4,
			Alpha:        1,
		})
		vers = append(vers, w.ver[u])
	}
	return
}

func regionsEqual(t *testing.T, frame, cell int, kind string, got, want Region) {
	t.Helper()
	if len(got.Coeff) != len(want.Coeff) || len(got.Bound) != len(want.Bound) || len(got.Cells) != len(want.Cells) {
		t.Fatalf("frame %d cell %d %s: shape (%d,%d,%d) != (%d,%d,%d)", frame, cell, kind,
			len(got.Coeff), len(got.Bound), len(got.Cells), len(want.Coeff), len(want.Bound), len(want.Cells))
	}
	for i := range want.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Fatalf("frame %d cell %d %s: row %d cell %d != %d", frame, cell, kind, i, got.Cells[i], want.Cells[i])
		}
		if got.Bound[i] != want.Bound[i] {
			t.Fatalf("frame %d cell %d %s: bound %d: %v != %v", frame, cell, kind, i, got.Bound[i], want.Bound[i])
		}
		for j := range want.Coeff[i] {
			if got.Coeff[i][j] != want.Coeff[i][j] {
				t.Fatalf("frame %d cell %d %s: coeff[%d][%d]: %v != %v", frame, cell, kind, i, j,
					got.Coeff[i][j], want.Coeff[i][j])
			}
		}
	}
}

// TestIncrementalMatchesFullRebuild is the property-style differential gate:
// over randomized frame sequences with request churn and measurement
// mutation, the incremental cache at epsilon 0 must produce regions
// identical to fresh full rebuilds, forward and reverse.
func TestIncrementalMatchesFullRebuild(t *testing.T) {
	const nCells, users, frames = 7, 30, 400
	w := newIncrementalWorld(123, nCells, users)
	ir := NewIncrementalRegions(nCells)
	var incB, fullB RegionBuilder
	for f := 0; f < frames; f++ {
		w.stepFrame()
		for k := 0; k < nCells; k++ {
			fwd, _, vers := w.gather(k)
			if len(fwd) == 0 {
				continue
			}
			fstate := ForwardState{CurrentLoad: w.loads, MaxLoad: 20, GammaS: 1.25}
			got, _, err := ir.ForwardCell(k, &incB, fstate, fwd, vers)
			if err != nil {
				t.Fatalf("frame %d cell %d forward: %v", f, k, err)
			}
			want, err := fullB.Forward(fstate, fwd)
			if err != nil {
				t.Fatal(err)
			}
			regionsEqual(t, f, k, "forward", got, want)
		}
	}
	hits, misses := ir.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate run: hits=%d misses=%d (want both > 0)", hits, misses)
	}
}

// TestIncrementalReverseMatchesFullRebuild runs the same property for the
// reverse link, whose coefficients embed the ledger loads: load moves must
// force rebuilds at epsilon 0.
func TestIncrementalReverseMatchesFullRebuild(t *testing.T) {
	const nCells, users, frames = 7, 30, 400
	w := newIncrementalWorld(321, nCells, users)
	ir := NewIncrementalRegions(nCells)
	var incB, fullB RegionBuilder
	for f := 0; f < frames; f++ {
		w.stepFrame()
		for k := 0; k < nCells; k++ {
			_, rev, vers := w.gather(k)
			if len(rev) == 0 {
				continue
			}
			rstate := ReverseState{TotalReceived: w.loads, MaxReceived: 10, GammaS: 1.25, ShadowMargin: 1.5}
			got, _, err := ir.ReverseCell(k, &incB, rstate, rev, vers)
			if err != nil {
				t.Fatalf("frame %d cell %d reverse: %v", f, k, err)
			}
			want, err := fullB.Reverse(rstate, rev)
			if err != nil {
				t.Fatal(err)
			}
			regionsEqual(t, f, k, "reverse", got, want)
		}
	}
	hits, misses := ir.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate run: hits=%d misses=%d (want both > 0)", hits, misses)
	}
}

// TestIncrementalForceFull checks the differential-test knob: with ForceFull
// every call is a miss.
func TestIncrementalForceFull(t *testing.T) {
	w := newIncrementalWorld(7, 5, 10)
	ir := NewIncrementalRegions(5)
	ir.ForceFull = true
	var rb RegionBuilder
	for f := 0; f < 20; f++ {
		for k := 0; k < 5; k++ {
			fwd, _, vers := w.gather(k)
			if len(fwd) == 0 {
				continue
			}
			if _, reused, err := ir.ForwardCell(k, &rb, ForwardState{CurrentLoad: w.loads, MaxLoad: 20, GammaS: 1.25}, fwd, vers); err != nil {
				t.Fatal(err)
			} else if reused {
				t.Fatalf("ForceFull served a cached region")
			}
		}
	}
	if hits, _ := ir.Stats(); hits != 0 {
		t.Fatalf("ForceFull recorded %d hits", hits)
	}
}
