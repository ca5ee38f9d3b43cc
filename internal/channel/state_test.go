package channel

import (
	"bytes"
	"math"
	"testing"

	"jabasd/internal/checkpoint"
	"jabasd/internal/rng"
)

// snapshotState round-trips enc into dec through a one-section stream.
func snapshotState(t *testing.T, enc func(*checkpoint.Writer), dec func(*checkpoint.Reader)) {
	t.Helper()
	var buf bytes.Buffer
	w := checkpoint.NewWriter(&buf)
	w.Section("chan")
	enc(w)
	if err := w.Close(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	r, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if err := r.Section("chan"); err != nil {
		t.Fatal(err)
	}
	dec(r)
	if err := r.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// seedBatch seeds every user the way the engine does.
func seedBatch(b *Batch, users int, seed uint64) {
	parent := rng.New(seed)
	for u := 0; u < users; u++ {
		b.SeedUser(u, parent.Split(uint64(1000+u)), 10)
	}
}

// rowsEqual compares two float64 rows bit for bit.
func rowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBatchStateRoundTrip advances a batch several frames (including paused
// ones), snapshots it into a freshly built batch and checks both copies
// produce bitwise-identical gains and dirty flags ever after, on the exact
// and the fast kernels.
func TestBatchStateRoundTrip(t *testing.T) {
	const users, cells = 3, 5
	for _, exact := range []bool{true, false} {
		orig := NewBatch(users, cells, DefaultPathLoss(), 8, 50)
		seedBatch(orig, users, 4242)

		advance := func(b *Batch, step int) []bool {
			dirty := make([]bool, users)
			for u := 0; u < users; u++ {
				travelled := float64((step+u)%4) * 2.5 // includes zero-travel frames
				dist := make([]float64, cells)
				for k := range dist {
					d := 120 + 35*float64(u) + 11*float64(k) + 3*float64(step%7)
					if exact {
						dist[k] = d
					} else {
						dist[k] = d * d
					}
				}
				switch {
				case exact && travelled == 0 && b.Ready(u):
					b.AdvancePausedExact(u)
				case exact:
					b.AdvanceExact(u, dist, travelled)
				default:
					dirty[u] = b.AdvanceFast(u, dist, travelled)
				}
			}
			return dirty
		}

		for step := 0; step < 6; step++ {
			advance(orig, step)
		}

		restored := NewBatch(users, cells, DefaultPathLoss(), 8, 50) // unseeded: decode overwrites
		snapshotState(t, orig.EncodeState, restored.DecodeState)

		for u := 0; u < users; u++ {
			if !rowsEqual(orig.GainRow(u), restored.GainRow(u)) {
				t.Fatalf("exact=%v: user %d gain row differs right after restore", exact, u)
			}
		}
		for step := 6; step < 40; step++ {
			da := advance(orig, step)
			db := advance(restored, step)
			for u := 0; u < users; u++ {
				if da[u] != db[u] {
					t.Fatalf("exact=%v: user %d dirty flag diverged at step %d", exact, u, step)
				}
				if !rowsEqual(orig.GainRow(u), restored.GainRow(u)) {
					t.Fatalf("exact=%v: user %d gain row diverged at step %d", exact, u, step)
				}
				if !rowsEqual(orig.ShadowRow(u), restored.ShadowRow(u)) {
					t.Fatalf("exact=%v: user %d shadow row diverged at step %d", exact, u, step)
				}
			}
		}
	}
}

func TestBatchDecodeRejectsSizeMismatch(t *testing.T) {
	orig := NewBatch(2, 3, DefaultPathLoss(), 8, 50)
	seedBatch(orig, 2, 1)
	var buf bytes.Buffer
	w := checkpoint.NewWriter(&buf)
	w.Section("chan")
	orig.EncodeState(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	other := NewBatch(2, 4, DefaultPathLoss(), 8, 50)
	r, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("chan"); err != nil {
		t.Fatal(err)
	}
	other.DecodeState(r)
	if r.Err() == nil {
		t.Fatal("dimension mismatch not rejected")
	}
}

// TestWindowStateRoundTrip exercises the windowed state: retargets before
// and after the snapshot, with the slot-to-cell map and the per-slot
// shadowing carried across the restore, on both kernels.
func TestWindowStateRoundTrip(t *testing.T) {
	const users, width = 2, 3
	for _, exact := range []bool{true, false} {
		orig := NewWindow(users, width, DefaultPathLoss(), 8, 50)
		seedBatch(orig.Batch, users, 777)

		advance := func(wd *Window, u, step int, travelled float64) bool {
			dist := make([]float64, width)
			for k := range dist {
				d := 150 + 40*float64(u) + 9*float64(k) + 2*float64(step%5)
				if exact {
					dist[k] = d
				} else {
					dist[k] = d * d
				}
			}
			if exact {
				wd.AdvanceExact(u, dist, travelled)
				return true
			}
			return wd.AdvanceFast(u, dist, travelled)
		}

		for u := 0; u < users; u++ {
			orig.Retarget(u, []int32{0, 1, 2})
		}
		for step := 0; step < 4; step++ {
			for u := 0; u < users; u++ {
				advance(orig, u, step, 3)
			}
		}
		orig.Retarget(0, []int32{1, 2, 5}) // user 0 crosses into a new bucket
		advance(orig, 0, 4, 3)

		restored := NewWindow(users, width, DefaultPathLoss(), 8, 50)
		snapshotState(t, orig.EncodeState, restored.DecodeState)

		for u := 0; u < users; u++ {
			ca, cb := orig.CellRow(u), restored.CellRow(u)
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("exact=%v: user %d slot map differs after restore: %v vs %v", exact, u, cb, ca)
				}
			}
		}

		// Both copies now retarget user 1 and keep advancing; the entering
		// slots' fresh draws come from the restored substreams.
		orig.Retarget(1, []int32{2, 3, 4})
		restored.Retarget(1, []int32{2, 3, 4})
		for step := 5; step < 30; step++ {
			for u := 0; u < users; u++ {
				da := advance(orig, u, step, float64((step+u)%3))
				db := advance(restored, u, step, float64((step+u)%3))
				if da != db {
					t.Fatalf("exact=%v: user %d dirty flag diverged at step %d", exact, u, step)
				}
				if !rowsEqual(orig.GainRow(u), restored.GainRow(u)) {
					t.Fatalf("exact=%v: user %d gain row diverged at step %d", exact, u, step)
				}
			}
		}
	}
}
