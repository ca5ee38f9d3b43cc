package spatial

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"jabasd/internal/cellular"
	"jabasd/internal/rng"
)

// describe names a layout in failure messages.
func describe(l *cellular.Layout) string {
	return fmt.Sprintf("layout(%d cells, R=%.0f m, wrap=%v)", len(l.Cells), l.CellRadius, l.WrapAround)
}

// layouts under test: degenerate single cell up to a mid-size map, with and
// without wrap-around.
func testLayouts() []*cellular.Layout {
	var ls []*cellular.Layout
	for _, rings := range []int{0, 1, 2, 4} {
		for _, wrap := range []bool{true, false} {
			ls = append(ls, cellular.NewHexLayout(rings, 750, wrap))
		}
	}
	return ls
}

// testPoints yields deterministic query positions inside the service area
// plus adversarial ones: cell sites themselves, bucket-ish boundaries and
// exact midpoints between adjacent sites (distance ties).
func testPoints(l *cellular.Layout, src *rng.Source) []cellular.Point {
	w, h := l.Bounds()
	pts := []cellular.Point{
		{X: 0, Y: 0},
		{X: w / 2, Y: h / 2},
		{X: w - 1e-9, Y: h - 1e-9},
	}
	for _, c := range l.Cells {
		pts = append(pts, c.Position)
	}
	if len(l.Cells) > 1 {
		a, b := l.Cells[0].Position, l.Cells[1].Position
		pts = append(pts, cellular.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2})
	}
	for i := 0; i < 300; i++ {
		pts = append(pts, cellular.Point{X: src.Uniform(0, w), Y: src.Uniform(0, h)})
	}
	return pts
}

func TestNearestMatchesLinearScan(t *testing.T) {
	src := rng.New(7)
	for _, l := range testLayouts() {
		ix := New(l, 7)
		for _, p := range testPoints(l, src) {
			if got, want := ix.NearestCell(p), l.NearestCell(p); got != want {
				t.Fatalf("%s: NearestCell(%v) = %d, linear scan = %d", describe(l), p, got, want)
			}
			if got, want := ix.NearestCellSq(p), l.NearestCellSq(p); got != want {
				t.Fatalf("%s: NearestCellSq(%v) = %d, linear scan = %d", describe(l), p, got, want)
			}
		}
	}
}

func TestDistanceSqMatchesBatch(t *testing.T) {
	src := rng.New(9)
	for _, l := range testLayouts() {
		n := l.NumCells()
		all := make([]int32, n)
		for k := range all {
			all[k] = int32(k)
		}
		batch := make([]float64, n)
		for _, p := range testPoints(l, src) {
			l.DistancesSqForInto(p, all, batch)
			for k := 0; k < n; k++ {
				if got := l.DistanceSq(p, k); got != batch[k] {
					t.Fatalf("%s: DistanceSq(%v, %d) = %v, DistancesSqForInto = %v", describe(l), p, k, got, batch[k])
				}
			}
		}
	}
}

func TestCandidates(t *testing.T) {
	for _, l := range testLayouts() {
		for _, window := range []int{1, 3, 7, 1000} {
			ix := New(l, window)
			want := window
			if want > l.NumCells() {
				want = l.NumCells()
			}
			if ix.Window() != want {
				t.Fatalf("%s window=%d: Window() = %d, want %d", describe(l), window, ix.Window(), want)
			}
			for b := 0; b < ix.NumBuckets(); b++ {
				cand := ix.Candidates(b)
				if len(cand) != want {
					t.Fatalf("%s: bucket %d has %d candidates, want %d", describe(l), b, len(cand), want)
				}
				for i, c := range cand {
					if c < 0 || int(c) >= l.NumCells() {
						t.Fatalf("%s: bucket %d candidate %d out of range", describe(l), b, c)
					}
					if i > 0 && cand[i-1] >= c {
						t.Fatalf("%s: bucket %d candidates not strictly ascending: %v", describe(l), b, cand)
					}
				}
			}
		}
	}
}

// TestCandidatesAreNearest checks the bucketed selection against brute
// force: every bucket's candidates must be the first `window` cells of a
// full (distance to the bucket centre, cell index) sort, listed ascending
// by index. The 18-ring wrap-around grid is the city map; hex grids put many cells at exactly the
// same distance, so the index tie-break decides real windows.
func TestCandidatesAreNearest(t *testing.T) {
	layouts := append(testLayouts(), cellular.NewHexLayout(18, 500, true))
	type distCell struct {
		d float64
		k int32
	}
	for _, l := range layouts {
		cells := l.NumCells()
		for _, window := range []int{1, 3, 7, 24, 0} {
			ix := New(l, window)
			w := ix.Window()
			all := make([]distCell, cells)
			for b := 0; b < ix.NumBuckets(); b++ {
				centre := cellular.Point{
					X: ix.ox + (float64(b%ix.nx)+0.5)*ix.bw,
					Y: ix.oy + (float64(b/ix.nx)+0.5)*ix.bh,
				}
				for k := range all {
					all[k] = distCell{d: l.Distance(centre, k), k: int32(k)}
				}
				slices.SortFunc(all, func(a, b distCell) int {
					return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.k, b.k))
				})
				want := make([]int32, w)
				for i := range want {
					want[i] = all[i].k
				}
				slices.Sort(want)
				if got := ix.Candidates(b); !slices.Equal(got, want) {
					t.Fatalf("%s window=%d bucket %d: candidates %v, brute force %v", describe(l), window, b, got, want)
				}
			}
		}
	}
}

// TestCandidatesContainNearest: the candidate window of a point's bucket
// must contain the point's true nearest cell whenever the window is at
// least a one-ring neighbourhood — that is the property the windowed
// physics path relies on to pick host cells.
func TestCandidatesContainNearest(t *testing.T) {
	src := rng.New(11)
	for _, l := range testLayouts() {
		window := 9
		if window > l.NumCells() {
			window = l.NumCells()
		}
		ix := New(l, window)
		for _, p := range testPoints(l, src) {
			nearest := int32(l.NearestCell(p))
			cand := ix.Candidates(ix.BucketOf(p))
			found := false
			for _, c := range cand {
				if c == nearest {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: nearest cell %d of %v missing from bucket candidates %v", describe(l), nearest, p, cand)
			}
		}
	}
}
