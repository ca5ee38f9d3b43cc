package cellular

import (
	"math"
	"sort"
	"testing"
	"unsafe"

	"jabasd/internal/rng"
)

const (
	windowPilotFraction = 0.2
	windowTxPower       = 20.0
	windowNoise         = 4e-15
)

// windowCells draws n distinct global cell indices below total, ascending —
// the shape internal/spatial gives a bucket's candidate list.
func windowCells(src *rng.Source, n, total int) []int32 {
	seen := make(map[int32]bool, n)
	cells := make([]int32, 0, n)
	for len(cells) < n {
		c := int32(src.Intn(total))
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	return cells
}

// windowGains fills gains with long-term linear gains around -150..-80 dB.
func windowGains(src *rng.Source, gains []float64) {
	for i := range gains {
		gains[i] = math.Pow(10, src.Uniform(-15, -8))
	}
}

// driftGains applies one frame of shadowing drift: a small log-normal step
// per slot, enough to swap neighbouring ranks now and then.
func driftGains(src *rng.Source, gains []float64) {
	for i := range gains {
		gains[i] *= math.Pow(10, src.Normal(0, 0.3)/10)
	}
}

// samePilots fails unless got and want hold the same entries in the same
// order, field for field.
func samePilots(t *testing.T, what string, got, want []PilotMeasurement) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pilots, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pilot %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// checkSlots fails unless every entry's Slot points back at its Cell in the
// candidate list it was built from.
func checkSlots(t *testing.T, what string, pilots []PilotMeasurement, cells []int32) {
	t.Helper()
	for i, p := range pilots {
		if uint(p.Slot) >= uint(len(cells)) || cells[p.Slot] != p.Cell {
			t.Fatalf("%s: pilot %d (cell %d) carries slot %d, which is not its window position", what, i, p.Cell, p.Slot)
		}
	}
}

// TestWindowPilotMeasurementSize pins the entry at 24 bytes: every data
// user keeps TopPilots entries (the city preset has about 100k users),
// so a wider struct shows up directly in the heap.
func TestWindowPilotMeasurementSize(t *testing.T) {
	if got := unsafe.Sizeof(PilotMeasurement{}); got != 24 {
		t.Fatalf("PilotMeasurement is %d bytes, want 24", got)
	}
}

// TestWindowPilotCoherentMatchesRebuild drives the frame-coherent path of
// PilotSetCellsLinearInto over 1000 frames of drifting gains and requires
// each frame to equal a from-scratch call on the same gains.
func TestWindowPilotCoherentMatchesRebuild(t *testing.T) {
	src := rng.New(31)
	cells := windowCells(src, 24, 1027)
	gains := make([]float64, len(cells))
	windowGains(src, gains)
	var coherent, fresh []PilotMeasurement
	for frame := 0; frame < 1000; frame++ {
		driftGains(src, gains)
		coherent = PilotSetCellsLinearInto(coherent, cells, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
		fresh = PilotSetCellsLinearInto(fresh[:0], cells, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
		samePilots(t, "coherent vs rebuild", coherent, fresh)
		checkSlots(t, "coherent", coherent, cells)
	}
}

// TestWindowPilotStaleSlotsRebuild changes the candidate list under a dst
// that was not resliced and requires the stale entries to be detected:
// the result must equal a fresh call on the new list, whether the change
// moves a cell out of the window, shifts retained cells to other slots, or
// leaves an entry with a slot outside the window.
func TestWindowPilotStaleSlotsRebuild(t *testing.T) {
	src := rng.New(32)
	old := windowCells(src, 24, 1027)
	gains := make([]float64, len(old))
	for _, tc := range []struct {
		name string
		next func() []int32
	}{
		{"cell leaves", func() []int32 {
			next := append([]int32(nil), old...)
			next[len(next)-1] = 2000 // replaced by a cell beyond the old range
			return next
		}},
		{"slots shift", func() []int32 {
			// Drop the first cell and append a new last one: every retained
			// cell moves down one slot.
			return append(append([]int32(nil), old[1:]...), 2000)
		}},
		{"same cells", func() []int32 { return old }},
	} {
		windowGains(src, gains)
		dst := PilotSetCellsLinearInto(nil, old, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
		next := tc.next()
		windowGains(src, gains)
		got := PilotSetCellsLinearInto(dst, next, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
		want := PilotSetCellsLinearInto(nil, next, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
		samePilots(t, tc.name, got, want)
		checkSlots(t, tc.name, got, next)
	}

	for _, bad := range []int32{-1, 24, math.MaxInt32} {
		windowGains(src, gains)
		dst := PilotSetCellsLinearInto(nil, old, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
		dst[len(dst)/2].Slot = bad
		got := PilotSetCellsLinearInto(dst, old, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
		want := PilotSetCellsLinearInto(nil, old, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
		samePilots(t, "out-of-window slot", got, want)
	}
}

// TestWindowPilotSlotsRoundTrip checks the slot both kernels stamp: Slot
// indexes the candidate list back to the entry's cell, which on a map-wide
// window is the cell itself, also after a frame-coherent update.
func TestWindowPilotSlotsRoundTrip(t *testing.T) {
	src := rng.New(33)
	cells := windowCells(src, 19, 400)
	gains := make([]float64, len(cells))
	windowGains(src, gains)
	checkSlots(t, "PilotSetCellsInto", PilotSetCellsInto(nil, cells, gains, nil, windowPilotFraction, windowTxPower, windowNoise), cells)
	checkSlots(t, "PilotSetCellsLinearInto", PilotSetCellsLinearInto(nil, cells, gains, nil, windowPilotFraction, windowTxPower, windowNoise), cells)

	identity := allCells(len(gains))
	full := PilotSetCellsInto(nil, identity, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
	checkSlots(t, "map-wide PilotSetCellsInto", full, identity)
	lin := PilotSetCellsLinearInto(nil, identity, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
	driftGains(src, gains)
	lin = PilotSetCellsLinearInto(lin, identity, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
	checkSlots(t, "map-wide PilotSetCellsLinearInto", lin, identity)
	for _, p := range lin {
		if p.Slot != p.Cell {
			t.Fatalf("map-wide pilot for cell %d carries slot %d", p.Cell, p.Slot)
		}
	}
}

// TestWindowFindCell covers hits at every slot, misses between, below and
// above the candidates, and the empty and single-cell edge cases.
func TestWindowFindCell(t *testing.T) {
	cells := []int32{2, 5, 9, 14, 20}
	for s, c := range cells {
		if got := FindCell(cells, c); got != s {
			t.Errorf("FindCell(%d) = %d, want %d", c, got, s)
		}
	}
	for _, c := range []int32{-1, 0, 1, 3, 10, 19, 21, math.MaxInt32} {
		if got := FindCell(cells, c); got != -1 {
			t.Errorf("FindCell(%d) = %d, want -1", c, got)
		}
	}
	if got := FindCell(nil, 0); got != -1 {
		t.Errorf("FindCell on an empty window = %d, want -1", got)
	}
	if got := FindCell([]int32{7}, 7); got != 0 {
		t.Errorf("FindCell on a one-cell window hit = %d, want 0", got)
	}
	if got := FindCell([]int32{7}, 8); got != -1 {
		t.Errorf("FindCell on a one-cell window miss = %d, want -1", got)
	}
}

// BenchmarkPilotSetCellsLinear measures the steady-state frame-coherent
// path over a 24-cell window, the city preset's shape: dst already holds
// last frame's sorted entries and each call sees one frame of gain drift.
func BenchmarkPilotSetCellsLinear(b *testing.B) {
	src := rng.New(34)
	cells := windowCells(src, 24, 1027)
	const frames = 64
	gains := make([][]float64, frames)
	for f := range gains {
		gains[f] = make([]float64, len(cells))
		if f == 0 {
			windowGains(src, gains[f])
		} else {
			copy(gains[f], gains[f-1])
			driftGains(src, gains[f])
		}
	}
	dst := PilotSetCellsLinearInto(nil, cells, gains[0], nil, windowPilotFraction, windowTxPower, windowNoise)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Walk the frames forward then back, so every call is one frame of
		// drift away from the previous one.
		f := i % (2*frames - 2)
		if f >= frames {
			f = 2*frames - 2 - f
		}
		dst = PilotSetCellsLinearInto(dst, cells, gains[f], nil, windowPilotFraction, windowTxPower, windowNoise)
	}
}

// TestDistancesSqForIntoMatchesDistanceSq pins the inlined window distance
// loop to per-cell DistanceSq calls bit for bit, with and without
// wrap-around, on random points and on points exactly half the map away
// from a cell (the wrap fold's boundary), over the whole map and over
// random 24-cell windows.
func TestDistancesSqForIntoMatchesDistanceSq(t *testing.T) {
	for _, wrap := range []bool{true, false} {
		l := NewHexLayout(18, 500, wrap)
		src := rng.New(35)
		w, h := l.Bounds()
		var pts []Point
		for i := 0; i < 200; i++ {
			pts = append(pts, Point{X: src.Uniform(-w, w), Y: src.Uniform(-h, h)})
		}
		boundary := 0
		for _, k := range []int{0, 1, 500, l.NumCells() - 1} {
			b := l.Cells[k].Position
			for _, sx := range []float64{-0.5, 0, 0.5} {
				for _, sy := range []float64{-0.5, 0, 0.5} {
					p := Point{X: b.X + sx*w, Y: b.Y + sy*h}
					if math.Abs(p.X-b.X) == w/2 || math.Abs(p.Y-b.Y) == h/2 {
						boundary++
					}
					pts = append(pts, p)
				}
			}
		}
		if boundary == 0 {
			t.Fatalf("wrap=%v: no point lands exactly half the map from its cell", wrap)
		}
		all := make([]int32, l.NumCells())
		for k := range all {
			all[k] = int32(k)
		}
		windows := [][]int32{all}
		for i := 0; i < 8; i++ {
			windows = append(windows, windowCells(src, 24, l.NumCells()))
		}
		got := make([]float64, l.NumCells())
		for _, p := range pts {
			for _, cells := range windows {
				l.DistancesSqForInto(p, cells, got)
				for i, k := range cells {
					want := l.DistanceSq(p, int(k))
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("wrap=%v p=%+v cell %d: DistancesSqForInto %v, DistanceSq %v", wrap, p, k, got[i], want)
					}
				}
			}
		}
	}
}

// BenchmarkDistancesSqForInto times one city window row: the 24 cells
// nearest a point on the 1027-cell wrap-around map, in ascending index
// order as internal/spatial lists them.
func BenchmarkDistancesSqForInto(b *testing.B) {
	l := NewHexLayout(18, 500, true)
	src := rng.New(36)
	w, h := l.Bounds()
	const points = 64
	pts := make([]Point, points)
	wins := make([][]int32, points)
	byDist := make([]int32, l.NumCells())
	for i := range pts {
		p := Point{X: src.Uniform(0, w), Y: src.Uniform(0, h)}
		for k := range byDist {
			byDist[k] = int32(k)
		}
		sort.Slice(byDist, func(a, c int) bool {
			return l.DistanceSq(p, int(byDist[a])) < l.DistanceSq(p, int(byDist[c]))
		})
		win := append([]int32(nil), byDist[:24]...)
		sort.Slice(win, func(a, c int) bool { return win[a] < win[c] })
		pts[i], wins[i] = p, win
	}
	dst := make([]float64, 24)
	b.Run("w24", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.DistancesSqForInto(pts[i%points], wins[i%points], dst)
		}
	})
}
