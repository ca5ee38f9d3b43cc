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
	driftGainsDB(src, gains, 0.3)
}

// driftGainsDB applies a log-normal step of sigmaDB per slot.
func driftGainsDB(src *rng.Source, gains []float64, sigmaDB float64) {
	for i := range gains {
		gains[i] *= math.Pow(10, src.Normal(0, sigmaDB)/10)
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

// TestPilotRepairTies drives the frame-coherent path into exact Ec/Io ties
// and requires the result to equal a fresh selection and referencePilots,
// whose stable sort breaks a tie by slot. A 12-cell window is ranked on a
// ladder, so eight slots are kept, and the next frame sets one gain equal
// to another's:
//   - a slot left out ties the weakest kept entry from a lower slot, so it
//     must enter in that entry's place;
//   - a slot left out ties it from a higher slot, so it must stay out;
//   - a weaker kept entry ties a stronger one that has a higher slot, so
//     the two must swap against last frame's order.
func TestPilotRepairTies(t *testing.T) {
	cells := allCells(12)
	ladder := func(up bool) []float64 {
		g := make([]float64, len(cells))
		for i := range g {
			step := float64(i)
			if !up {
				step = float64(len(g) - 1 - i)
			}
			g[i] = math.Pow(10, -12+step/4)
		}
		return g
	}
	for _, tc := range []struct {
		name      string
		up        bool // gains rise with the slot (slots 4-11 kept) or fall (0-7)
		from, to  int  // the next frame sets gains[to] = gains[from]
		wantSlots []int32
	}{
		{"left-out lower slot ties the floor", true, 4, 3, []int32{11, 10, 9, 8, 7, 6, 5, 3}},
		{"left-out higher slot ties the floor", false, 7, 8, []int32{0, 1, 2, 3, 4, 5, 6, 7}},
		{"kept entries tie against last frame's order", true, 9, 5, []int32{11, 10, 5, 9, 8, 7, 6, 4}},
	} {
		gains := ladder(tc.up)
		prev := PilotSetCellsLinearInto(nil, cells, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
		gains[tc.to] = gains[tc.from]
		got := PilotSetCellsLinearInto(prev, cells, gains, nil, windowPilotFraction, windowTxPower, windowNoise)
		want := referencePilots(cells, gains, nil, false)
		sameBits(t, tc.name, got, want)
		sameBits(t, tc.name+" (fresh)", PilotSetCellsLinearInto(nil, cells, gains, nil, windowPilotFraction, windowTxPower, windowNoise), want)
		for i, p := range got {
			if p.Slot != tc.wantSlots[i] {
				t.Fatalf("%s: slot order %v, want %v", tc.name, got, tc.wantSlots)
			}
		}
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
// path: dst already holds last frame's sorted entries and each call sees
// one frame of gain drift. w24 is a 24-cell window, the city preset's
// shape, under a drift that seldom changes the kept cells; map37 is the
// metro preset's map-wide 37-cell window under a drift large enough that a
// cell enters the kept entries on about a quarter of calls, as on metro.
// entering/op reports that share.
func BenchmarkPilotSetCellsLinear(b *testing.B) {
	for _, bc := range []struct {
		name    string
		cells   func(*rng.Source) []int32
		sigmaDB float64
	}{
		{"w24", func(src *rng.Source) []int32 { return windowCells(src, 24, 1027) }, 0.3},
		{"map37", func(*rng.Source) []int32 { return allCells(37) }, 0.9},
	} {
		src := rng.New(34)
		cells := bc.cells(src)
		const frames = 64
		gains := make([][]float64, frames)
		kept := make([]map[int32]bool, frames)
		for f := range gains {
			gains[f] = make([]float64, len(cells))
			if f == 0 {
				windowGains(src, gains[f])
			} else {
				copy(gains[f], gains[f-1])
				driftGainsDB(src, gains[f], bc.sigmaDB)
			}
			kept[f] = map[int32]bool{}
			for _, p := range referencePilots(cells, gains[f], nil, false) {
				kept[f][p.Slot] = true
			}
		}
		// Walk the frames forward then back, so every call is one frame of
		// drift away from the previous one.
		frame := func(i int) int {
			f := i % (2*frames - 2)
			if f >= frames {
				f = 2*frames - 2 - f
			}
			return f
		}
		entering := 0
		for i := 1; i < 2*frames-2; i++ {
			for s := range kept[frame(i)] {
				if !kept[frame(i-1)][s] {
					entering++
					break
				}
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			dst := PilotSetCellsLinearInto(nil, cells, gains[0], nil, windowPilotFraction, windowTxPower, windowNoise)
			for i := 0; i < b.N; i++ {
				dst = PilotSetCellsLinearInto(dst, cells, gains[frame(i)], nil, windowPilotFraction, windowTxPower, windowNoise)
			}
			b.ReportMetric(float64(entering)/float64(2*frames-3), "entering/op")
		})
	}
}

// branchDistanceSq is the squared torus distance with the wrap fold as a
// compare and subtract, the form the min fold of DistanceSq and
// DistancesSqForInto replaced; it is their reference.
func branchDistanceSq(l *Layout, p Point, k int) float64 {
	b := l.Cells[k].Position
	if !l.WrapAround {
		dx, dy := p.X-b.X, p.Y-b.Y
		return dx*dx + dy*dy
	}
	w, h := l.Bounds()
	dx, dy := math.Abs(p.X-b.X), math.Abs(p.Y-b.Y)
	if dx > w/2 {
		dx = w - dx
	}
	if dy > h/2 {
		dy = h - dy
	}
	return dx*dx + dy*dy
}

// TestDistancesSqForIntoMatchesDistanceSq pins the inlined window distance
// loop and per-cell DistanceSq to branchDistanceSq bit for bit, with and
// without wrap-around, over the whole map and over random 24-cell windows.
// The points are random ones within twice the map's extent, ones exactly
// half the map away from a cell (the wrap fold's boundary), ones beyond a
// whole map away, and infinite ones.
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
		inf := math.Inf(1)
		for _, k := range []int{0, 1, 500, l.NumCells() - 1} {
			b := l.Cells[k].Position
			for _, sx := range []float64{-2.5, -1.25, -0.5, 0, 0.5, 1.25, 2.5} {
				for _, sy := range []float64{-2.5, -1.25, -0.5, 0, 0.5, 1.25, 2.5} {
					p := Point{X: b.X + sx*w, Y: b.Y + sy*h}
					if math.Abs(p.X-b.X) == w/2 || math.Abs(p.Y-b.Y) == h/2 {
						boundary++
					}
					pts = append(pts, p)
				}
			}
			pts = append(pts, Point{X: inf, Y: b.Y}, Point{X: b.X, Y: -inf}, Point{X: -inf, Y: inf})
		}
		if boundary == 0 {
			t.Fatalf("wrap=%v: no point lands exactly half the map from its cell", wrap)
		}
		windows := [][]int32{allCells(l.NumCells())}
		for i := 0; i < 8; i++ {
			windows = append(windows, windowCells(src, 24, l.NumCells()))
		}
		got := make([]float64, l.NumCells())
		for _, p := range pts {
			for _, cells := range windows {
				l.DistancesSqForInto(p, cells, got)
				for i, k := range cells {
					want := branchDistanceSq(l, p, int(k))
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("wrap=%v p=%+v cell %d: DistancesSqForInto %v, branch fold %v", wrap, p, k, got[i], want)
					}
					if d := l.DistanceSq(p, int(k)); math.Float64bits(d) != math.Float64bits(want) {
						t.Fatalf("wrap=%v p=%+v cell %d: DistanceSq %v, branch fold %v", wrap, p, k, d, want)
					}
				}
			}
		}
	}
}

// BenchmarkDistancesSqForInto times one user's distance row: w24 is a city
// window, the 24 cells nearest a point on the 1027-cell wrap-around map in
// ascending index order as internal/spatial lists them; map37 is the metro
// preset's full scan, every cell of the 37-cell wrap-around map, over as
// many positions as metro has data users.
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
	dst := make([]float64, 37)
	b.Run("w24", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.DistancesSqForInto(pts[i%points], wins[i%points], dst)
		}
	})

	// One point per metro data user (30 per cell): a frame computes each
	// user's row once, so consecutive rows belong to different positions
	// and a branch predictor cannot learn which cells wrap for which row.
	metro := NewHexLayout(3, 600, true)
	mw, mh := metro.Bounds()
	users := make([]Point, 30*metro.NumCells())
	for i := range users {
		users[i] = Point{X: src.Uniform(0, mw), Y: src.Uniform(0, mh)}
	}
	all := allCells(metro.NumCells())
	b.Run("map37", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			metro.DistancesSqForInto(users[i%len(users)], all, dst)
		}
	})
}
