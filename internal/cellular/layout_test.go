package cellular

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHexLayoutCellCounts(t *testing.T) {
	cases := []struct{ rings, want int }{
		{0, 1}, {1, 7}, {2, 19}, {3, 37},
	}
	for _, c := range cases {
		l := NewHexLayout(c.rings, 1000, false)
		if l.NumCells() != c.want {
			t.Errorf("rings=%d: %d cells, want %d", c.rings, l.NumCells(), c.want)
		}
	}
	if NewHexLayout(-1, 1000, false).NumCells() != 1 {
		t.Error("negative rings should clamp to 0")
	}
}

func TestHexLayoutSpacing(t *testing.T) {
	l := NewHexLayout(1, 1000, false)
	// Every outer cell should be exactly sqrt(3)*R from the centre cell.
	centre := -1
	for i, c := range l.Cells {
		if c.Position.X == 0 && c.Position.Y == 0 {
			centre = i
			break
		}
	}
	if centre < 0 {
		t.Fatal("no centre cell at origin")
	}
	want := math.Sqrt(3) * 1000
	for i, c := range l.Cells {
		if i == centre {
			continue
		}
		d := c.Position.Dist(l.Cells[centre].Position)
		if math.Abs(d-want) > 1e-6 {
			t.Errorf("cell %d at distance %v, want %v", i, d, want)
		}
	}
}

func TestHexLayoutDefaultRadius(t *testing.T) {
	l := NewHexLayout(1, 0, false)
	if l.CellRadius != 1000 {
		t.Errorf("default radius = %v", l.CellRadius)
	}
}

func TestWrapAroundDistance(t *testing.T) {
	l := NewHexLayout(2, 1000, true)
	w, h := l.Bounds()
	if w <= 0 || h <= 0 {
		t.Fatal("bounds must be positive")
	}
	// Wrap-around distance can never exceed half the diagonal of the torus.
	maxPossible := math.Sqrt((w/2)*(w/2)+(h/2)*(h/2)) + 1e-9
	f := func(x, y float64) bool {
		p := Point{math.Mod(math.Abs(x), w), math.Mod(math.Abs(y), h)}
		for k := range l.Cells {
			if l.Distance(p, k) > maxPossible {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWrapVsNoWrap(t *testing.T) {
	lw := NewHexLayout(2, 1000, true)
	ln := NewHexLayout(2, 1000, false)
	// For a point near a corner, wrap-around distance to a far cell must not
	// exceed the planar distance.
	p := Point{5000, 5000}
	for k := range ln.Cells {
		if lw.Distance(p, k) > ln.Distance(p, k)+1e-9 {
			t.Errorf("wrap distance to cell %d exceeds planar distance", k)
		}
	}
}

func TestNearestCell(t *testing.T) {
	l := NewHexLayout(2, 1000, false)
	for k, c := range l.Cells {
		if got := l.NearestCell(c.Position); got != k {
			t.Errorf("nearest cell to site %d = %d", k, got)
		}
	}
}

func TestPointOps(t *testing.T) {
	p := Point{3, 4}
	if d := p.Dist(Point{}); d != 5 {
		t.Errorf("Dist to origin = %v", d)
	}
	if q := p.Add(Point{1, 1}); q.X != 4 || q.Y != 5 {
		t.Errorf("Add = %v", q)
	}
	if q := p.Sub(Point{1, 1}); q.X != 2 || q.Y != 3 {
		t.Errorf("Sub = %v", q)
	}
	if q := p.Scale(2); q.X != 6 || q.Y != 8 {
		t.Errorf("Scale = %v", q)
	}
	if d := p.Dist(Point{0, 0}); d != 5 {
		t.Errorf("Dist = %v", d)
	}
}

func TestPilotSetSortedAndBounded(t *testing.T) {
	gains := []float64{1e-10, 5e-10, 2e-10}
	pilots := PilotSetCellsInto(nil, allCells(len(gains)), gains, nil, 0.2, 10, 1e-13)
	if len(pilots) != 3 {
		t.Fatalf("pilot count = %d", len(pilots))
	}
	// Sorted descending.
	for i := 1; i < len(pilots); i++ {
		if pilots[i].EcIo > pilots[i-1].EcIo {
			t.Error("pilots not sorted by Ec/Io")
		}
	}
	// Strongest pilot should come from the strongest gain (index 1).
	if pilots[0].Cell != 1 {
		t.Errorf("strongest pilot from cell %d, want 1", pilots[0].Cell)
	}
	// Ec/Io is a fraction of total received power: always < pilotFraction.
	for _, p := range pilots {
		if p.EcIo <= 0 || p.EcIo >= 0.2 {
			t.Errorf("pilot Ec/Io out of range: %v", p.EcIo)
		}
	}
}

func TestPilotSetSumBelowPilotFraction(t *testing.T) {
	f := func(a, b, c float64) bool {
		// Map arbitrary floats into a physically sensible gain range
		// (-160 dB .. 0 dB) to avoid floating point overflow in the test.
		toGain := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0.5
			}
			frac := math.Abs(x) - math.Floor(math.Abs(x)) // [0,1)
			return math.Pow(10, -16*frac)                 // 1 .. 1e-16
		}
		gains := []float64{toGain(a), toGain(b), toGain(c)}
		pilots := PilotSetCellsInto(nil, allCells(len(gains)), gains, nil, 0.2, 10, 1e-13)
		sum := 0.0
		for _, p := range pilots {
			sum += p.EcIo
		}
		return sum < 0.2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestActiveSet(t *testing.T) {
	pilots := []PilotMeasurement{
		{Cell: 2, EcIoDB: -6},
		{Cell: 0, EcIoDB: -8},
		{Cell: 1, EcIoDB: -13},
		{Cell: 3, EcIoDB: -20},
	}
	// 5 dB add threshold, -15 dB minimum, max 3.
	got := ActiveSetInto(nil, pilots, 5, -15, 3)
	if len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Errorf("ActiveSetInto = %v, want [2 0]", got)
	}
	// Wider threshold admits cell 1 too.
	got = ActiveSetInto(got, pilots, 8, -15, 3)
	if len(got) != 3 {
		t.Errorf("ActiveSetInto with wide threshold = %v", got)
	}
	// Cap at 1.
	got = ActiveSetInto(got, pilots, 8, -15, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("capped ActiveSetInto = %v", got)
	}
	if got = ActiveSetInto(got, nil, 5, -15, 3); len(got) != 0 {
		t.Errorf("empty pilots gave %v, want an empty set", got)
	}
	if got = ActiveSetInto([]int{7}, pilots, 5, -15, 0); len(got) != 0 {
		t.Errorf("maxSize 0 gave %v, want an empty set", got)
	}
}

func TestReducedActiveSet(t *testing.T) {
	pilots := []PilotMeasurement{
		{Cell: 2, EcIoDB: -6},
		{Cell: 0, EcIoDB: -8},
		{Cell: 1, EcIoDB: -9},
	}
	active := []int{2, 0, 1}
	got := ReducedActiveSetInto(nil, pilots, active)
	if len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Errorf("ReducedActiveSetInto = %v, want [2 0]", got)
	}
	// A cell not in the active set cannot appear even if its pilot is strong.
	got = ReducedActiveSetInto(got, pilots, []int{0, 1})
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("ReducedActiveSetInto = %v, want [0 1]", got)
	}
	if got = ReducedActiveSetInto(got, pilots, nil); len(got) != 0 {
		t.Errorf("empty active set gave %v, want an empty set", got)
	}
	// Single-cell active set.
	got = ReducedActiveSetInto(got, pilots, []int{1})
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("single-cell reduced set = %v", got)
	}
}
