package channel

import (
	"testing"

	"jabasd/internal/rng"
)

// fullCells returns the ascending identity candidate list [0, n).
func fullCells(n int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = int32(i)
	}
	return c
}

// TestWindowMatchesBatchFullWidth: a window as wide as the cell count,
// targeted at every cell, must reproduce the full Batch bit for bit on both
// advance kernels — the windowed path collapses to the full-scan path when
// nothing is excluded.
func TestWindowMatchesBatchFullWidth(t *testing.T) {
	const users, cells = 3, 5
	pl := DefaultPathLoss()
	for _, exact := range []bool{true, false} {
		b := NewBatch(users, cells, pl, 8, 50)
		w := NewWindow(users, cells, pl, 8, 50)
		for u := 0; u < users; u++ {
			pb := rng.New(uint64(100 + u))
			pw := rng.New(uint64(100 + u))
			b.SeedUser(u, pb, 10)
			w.SeedUser(u, pw, 10)
			if w.Retarget(u, nil, fullCells(cells)) != true {
				t.Fatal("first Retarget must report a change")
			}
		}
		travels := []float64{5, 0, 2.5, 0, 0, 17, 1}
		dist := make([]float64, cells)
		for f, travelled := range travels {
			for u := 0; u < users; u++ {
				for k := range dist {
					d := 200 + 37*float64(u) + 11*float64(k) + 3*float64(f)
					if !exact {
						d *= d // fast kernel reads squared distances
					}
					dist[k] = d
				}
				if exact {
					if travelled == 0 && b.Ready(u) {
						b.AdvancePausedExact(u)
						w.AdvancePausedExact(u)
					} else {
						b.AdvanceExact(u, dist, travelled)
						w.AdvanceExact(u, dist, travelled)
					}
				} else {
					advanceFastChecked(t, b, u, dist, travelled)
					advanceFastChecked(t, w.Batch, u, dist, travelled)
				}
				gb, gw := b.GainRow(u), w.GainRow(u)
				for k := range gb {
					if gb[k] != gw[k] {
						t.Fatalf("exact=%v frame %d user %d cell %d: gain %g (batch) vs %g (window)",
							exact, f, u, k, gb[k], gw[k])
					}
				}
			}
		}
	}
}

// TestRetargetCarriesState: slots whose cell survives a retarget keep their
// shadowing state; entering slots draw fresh.
func TestRetargetCarriesState(t *testing.T) {
	w := NewWindow(1, 2, DefaultPathLoss(), 8, 50)
	w.SeedUser(0, rng.New(42), 10)
	first, second := []int32{1, 3}, []int32{3, 5}
	if !w.Retarget(0, nil, first) {
		t.Fatal("initial Retarget must report a change")
	}
	w.AdvanceExact(0, []float64{300, 500}, 0) // initial draws
	before := append([]float64(nil), w.ShadowRow(0)...)
	if w.Retarget(0, first, []int32{1, 3}) {
		t.Fatal("identical candidate list must not report a change")
	}
	if !w.Retarget(0, first, second) {
		t.Fatal("new candidate list must report a change")
	}
	after := w.ShadowRow(0)
	if after[0] != before[1] {
		t.Fatalf("cell 3 moved slot 1 -> 0 but shadow changed: %g -> %g", before[1], after[0])
	}
	if after[1] == before[0] || after[1] == before[1] {
		t.Fatalf("entering cell 5 must draw fresh shadowing, got carried value %g", after[1])
	}
	if first[0] != 1 || first[1] != 3 || second[0] != 3 || second[1] != 5 {
		t.Fatalf("Retarget modified its lists: old %v, new %v", first, second)
	}
}

// TestRetargetDeterminism: the same seed and the same retarget/advance
// history produce bitwise identical state, regardless of anything else —
// the property the tiled engine's determinism gate rests on.
func TestRetargetDeterminism(t *testing.T) {
	mk := func() *Window {
		w := NewWindow(1, 3, DefaultPathLoss(), 8, 50)
		w.SeedUser(0, rng.New(7), 10)
		return w
	}
	run := func(w *Window) {
		lists := [][]int32{{0, 1, 2}, {1, 2, 4}, {1, 2, 4}, {2, 4, 6}, {0, 2, 6}}
		dist := make([]float64, 3)
		var old []int32
		for f, cand := range lists {
			w.Retarget(0, old, cand)
			old = cand
			for s := range cand {
				dist[s] = float64(100+10*f+s) * float64(100+10*f+s)
			}
			w.AdvanceFast(0, dist, 4)
		}
	}
	a, b := mk(), mk()
	run(a)
	run(b)
	ga, gb := a.GainRow(0), b.GainRow(0)
	for k := range ga {
		if ga[k] != gb[k] {
			t.Fatalf("slot %d: %g vs %g", k, ga[k], gb[k])
		}
	}
	sa, sb := a.ShadowRow(0), b.ShadowRow(0)
	for k := range sa {
		if sa[k] != sb[k] {
			t.Fatalf("shadow slot %d: %g vs %g", k, sa[k], sb[k])
		}
	}
}

func TestWindowPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero width", func() { NewWindow(1, 0, DefaultPathLoss(), 8, 50) })
	w := NewWindow(1, 2, DefaultPathLoss(), 8, 50)
	mustPanic("wrong candidate length", func() { w.Retarget(0, nil, []int32{1}) })
	w.SeedUser(0, rng.New(5), 10)
	w.Retarget(0, nil, []int32{1, 2})
	w.AdvanceExact(0, []float64{300, 500}, 1)
	mustPanic("advanced user without its old list", func() { w.Retarget(0, nil, []int32{2, 3}) })
}

// TestWideWindowNeverMerges: a window wider than MaxWindowWidth (a map-wide
// window on a large map) builds, takes its first target, advances and
// re-targets to the same list, but a merge — which would overrun the
// fixed-size merge scratch — panics.
func TestWideWindowNeverMerges(t *testing.T) {
	const width = MaxWindowWidth + 15
	w := NewWindow(1, width, DefaultPathLoss(), 8, 50)
	w.SeedUser(0, rng.New(3), 10)
	all := fullCells(width)
	if !w.Retarget(0, nil, all) {
		t.Fatal("first target reported no change")
	}
	dist := make([]float64, width)
	for i := range dist {
		dist[i] = float64(100 + i)
	}
	w.AdvanceExact(0, dist, 5)
	if w.Retarget(0, all, fullCells(width)) {
		t.Fatal("re-target to the same list reported a change")
	}
	moved := append([]int32(nil), all...)
	moved[width-1]++
	defer func() {
		if recover() == nil {
			t.Fatal("merge on a window wider than MaxWindowWidth did not panic")
		}
	}()
	w.Retarget(0, all, moved)
}
