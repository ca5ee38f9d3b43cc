package measurement

import (
	"testing"

	"jabasd/internal/load"
	"jabasd/internal/race"
	"jabasd/internal/rng"
)

// regionWorld is a randomized fixture for the region builders: a population
// of users whose measurements evolve over frames with request
// arrival/departure churn, gathered per cell the way the engine's admission
// loop gathers its queues.
type regionWorld struct {
	src    *rng.Source
	nCells int
	users  int

	fch  []load.Vec // per user, forward FCH ledger
	rev  []load.Vec // per user, reverse FCH received
	scrm []load.Vec
	host []int
	inQ  []bool

	loads []float64
}

func newRegionWorld(seed uint64, nCells, users int) *regionWorld {
	w := &regionWorld{
		src:    rng.New(seed),
		nCells: nCells,
		users:  users,
		fch:    make([]load.Vec, users),
		rev:    make([]load.Vec, users),
		scrm:   make([]load.Vec, users),
		host:   make([]int, users),
		inQ:    make([]bool, users),
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
func (w *regionWorld) mutateUser(u int) {
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
}

// stepFrame applies one frame of churn: some users join/leave the queue,
// some users' measurements change, sometimes the ledger moves.
func (w *regionWorld) stepFrame() {
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
func (w *regionWorld) gather(k int) (fwd []ForwardRequest, rev []ReverseRequest) {
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

// TestRegionBuilderSteadyStateAllocs gates the builders' allocation
// contract: one RegionBuilder reused across cells and frames grows its
// buffers to the working set during warm-up, and after that neither Forward
// nor Reverse allocates. The warm-up also holds every region the reused
// builder returns to a fresh builder's, so leftover state from the previous
// build never leaks into the next.
func TestRegionBuilderSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const nCells, users = 7, 30
	w := newRegionWorld(77, nCells, users)
	fstate := ForwardState{CurrentLoad: w.loads, MaxLoad: 20, GammaS: 1.25}
	rstate := ReverseState{TotalReceived: w.loads, MaxReceived: 10, GammaS: 1.25, ShadowMargin: 1.5}
	var rb RegionBuilder

	// Warm up across request churn and measurement changes.
	for f := 0; f < 40; f++ {
		w.stepFrame()
		for k := 0; k < nCells; k++ {
			fwd, rev := w.gather(k)
			if len(fwd) == 0 {
				continue
			}
			got, err := rb.Forward(fstate, fwd)
			if err != nil {
				t.Fatalf("frame %d cell %d forward: %v", f, k, err)
			}
			want, err := ForwardRegion(fstate, fwd)
			if err != nil {
				t.Fatal(err)
			}
			regionsEqual(t, f, k, "forward", got, want)
			if got, err = rb.Reverse(rstate, rev); err != nil {
				t.Fatalf("frame %d cell %d reverse: %v", f, k, err)
			}
			if want, err = ReverseRegion(rstate, rev); err != nil {
				t.Fatal(err)
			}
			regionsEqual(t, f, k, "reverse", got, want)
		}
	}

	// One frame's requests, gathered outside the measured loop (gather
	// allocates its request slices; the engine reuses scratch for that).
	fwd := make([][]ForwardRequest, nCells)
	rev := make([][]ReverseRequest, nCells)
	queued := 0
	for k := range fwd {
		fwd[k], rev[k] = w.gather(k)
		queued += len(fwd[k])
	}
	if queued == 0 {
		t.Fatal("degenerate frame: no cell has a request")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		for k := range fwd {
			if _, err := rb.Forward(fstate, fwd[k]); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("steady-state Forward allocated %v times per frame, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		for k := range rev {
			if _, err := rb.Reverse(rstate, rev[k]); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("steady-state Reverse allocated %v times per frame, want 0", allocs)
	}
}
