package cellular

import (
	"math"
	"testing"

	"jabasd/internal/rng"
)

// allCells returns the map-wide candidate list [0, n).
func allCells(n int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = int32(i)
	}
	return c
}

// TestDistancesIntoMatchesDistance pins the batched distance kernels, over
// a map-wide candidate list, to the scalar Distance, with and without
// wrap-around.
func TestDistancesIntoMatchesDistance(t *testing.T) {
	for _, wrap := range []bool{true, false} {
		l := NewHexLayout(3, 600, wrap)
		all := allCells(l.NumCells())
		src := rng.New(4)
		d := make([]float64, l.NumCells())
		d2 := make([]float64, l.NumCells())
		w, h := l.Bounds()
		for trial := 0; trial < 200; trial++ {
			p := Point{X: src.Uniform(0, w), Y: src.Uniform(0, h)}
			l.DistancesForInto(p, all, d)
			l.DistancesSqForInto(p, all, d2)
			for k := 0; k < l.NumCells(); k++ {
				want := l.Distance(p, k)
				if d[k] != want {
					t.Fatalf("wrap=%v cell %d: DistancesForInto %v != Distance %v", wrap, k, d[k], want)
				}
				if rel := math.Abs(d2[k]-want*want) / math.Max(want*want, 1); rel > 1e-12 {
					t.Fatalf("wrap=%v cell %d: DistancesSqForInto off by %.3e", wrap, k, rel)
				}
			}
		}
	}
}

// TestLinearPilotPathMatchesDBPath runs the linear-domain pilot + active-set
// kernels against the dB-domain reference over many random gain vectors and
// requires identical decisions: the linear comparisons are algebraically the
// same rules, so they may differ only for pilots within an ulp of a
// threshold, which random draws do not hit.
func TestLinearPilotPathMatchesDBPath(t *testing.T) {
	const (
		cells         = 19
		pilotFraction = 0.2
		txPower       = 20.0
		noise         = 4e-15
		addDB         = 5.0
		minEcIoDB     = -16.0
	)
	addFactor := math.Pow(10, -addDB/10)
	minEcIo := math.Pow(10, minEcIoDB/10)
	src := rng.New(21)
	all := allCells(cells)
	gains := make([]float64, cells)
	var pilotsDB, pilotsLin []PilotMeasurement
	var activeDB, activeLin, reducedDB, reducedLin []int
	for trial := 0; trial < 2000; trial++ {
		for k := range gains {
			// Long-term gains around -150..-80 dB, the simulator's range.
			gains[k] = math.Pow(10, src.Uniform(-15, -8))
		}
		pilotsDB = PilotSetCellsInto(pilotsDB, all, gains, nil, pilotFraction, txPower, noise)
		pilotsLin = PilotSetCellsLinearInto(pilotsLin, all, gains, nil, pilotFraction, txPower, noise)
		for i := range pilotsDB {
			if pilotsDB[i].Cell != pilotsLin[i].Cell {
				t.Fatalf("trial %d: pilot order differs at %d: %d vs %d", trial, i, pilotsDB[i].Cell, pilotsLin[i].Cell)
			}
			if rel := math.Abs(pilotsDB[i].EcIo-pilotsLin[i].EcIo) / pilotsDB[i].EcIo; rel > 1e-12 {
				t.Fatalf("trial %d: EcIo differs by %.3e", trial, rel)
			}
		}
		activeDB = ActiveSetInto(activeDB, pilotsDB, addDB, minEcIoDB, 3)
		activeLin = ActiveSetLinearInto(activeLin, pilotsLin, addFactor, minEcIo, 3)
		if len(activeDB) != len(activeLin) {
			t.Fatalf("trial %d: active set size %d vs %d", trial, len(activeDB), len(activeLin))
		}
		for i := range activeDB {
			if activeDB[i] != activeLin[i] {
				t.Fatalf("trial %d: active set differs at %d: %d vs %d", trial, i, activeDB[i], activeLin[i])
			}
		}
		reducedDB = ReducedActiveSetInto(reducedDB, pilotsDB, activeDB)
		reducedLin = ReducedActiveSetInto(reducedLin, pilotsLin, activeLin)
		if len(reducedDB) != len(reducedLin) {
			t.Fatalf("trial %d: reduced set size differs", trial)
		}
		for i := range reducedDB {
			if reducedDB[i] != reducedLin[i] {
				t.Fatalf("trial %d: reduced set differs at %d", trial, i)
			}
		}
	}
}

// TestNearestCellSqMatchesNearestCell pins the squared-distance serving-cell
// scan to the metre-domain reference over random positions, with and without
// wrap-around. The two can disagree only when sqrt rounds two distinct
// squared distances to the same float64, which random draws do not hit.
func TestNearestCellSqMatchesNearestCell(t *testing.T) {
	for _, wrap := range []bool{true, false} {
		l := NewHexLayout(3, 600, wrap)
		src := rng.New(21)
		w, h := l.Bounds()
		for trial := 0; trial < 500; trial++ {
			p := Point{X: src.Uniform(0, w), Y: src.Uniform(0, h)}
			if got, want := l.NearestCellSq(p), l.NearestCell(p); got != want {
				t.Fatalf("wrap=%v trial %d: NearestCellSq %d != NearestCell %d at %+v",
					wrap, trial, got, want, p)
			}
		}
	}
}
