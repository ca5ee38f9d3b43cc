package channel

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"jabasd/internal/checkpoint"
	"jabasd/internal/rng"
)

// snapshotState round-trips enc into dec through a one-section stream.
func snapshotState(t *testing.T, enc, dec func(*checkpoint.Codec)) {
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

// advanceFastChecked is b.AdvanceFast plus its paused contract: a
// zero-travel advance of an initialised user leaves the user's shadowing,
// gains and substreams bitwise unchanged.
func advanceFastChecked(t *testing.T, b *Batch, u int, dist []float64, travelled float64) {
	t.Helper()
	if travelled != 0 || !b.Ready(u) {
		b.AdvanceFast(u, dist, travelled)
		return
	}
	off := u * b.cells
	shadow := slices.Clone(b.ShadowRow(u))
	gain := slices.Clone(b.GainRow(u))
	src := slices.Clone(b.src[off : off+b.cells])
	b.AdvanceFast(u, dist, travelled)
	if !rowsEqual(shadow, b.ShadowRow(u)) || !rowsEqual(gain, b.GainRow(u)) || !slices.Equal(src, b.src[off:off+b.cells]) {
		t.Fatalf("paused fast advance of user %d changed its state or streams", u)
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
// produce bitwise-identical gains ever after, on the exact and the fast
// kernels.
func TestBatchStateRoundTrip(t *testing.T) {
	const users, cells = 3, 5
	for _, exact := range []bool{true, false} {
		orig := NewBatch(users, cells, DefaultPathLoss(), 8, 50)
		seedBatch(orig, users, 4242)

		advance := func(b *Batch, step int) {
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
					advanceFastChecked(t, b, u, dist, travelled)
				}
			}
		}

		for step := 0; step < 6; step++ {
			advance(orig, step)
		}

		restored := NewBatch(users, cells, DefaultPathLoss(), 8, 50) // unseeded: decode overwrites
		snapshotState(t, orig.Persist, restored.Persist)

		for u := 0; u < users; u++ {
			if !rowsEqual(orig.GainRow(u), restored.GainRow(u)) {
				t.Fatalf("exact=%v: user %d gain row differs right after restore", exact, u)
			}
		}
		for step := 6; step < 40; step++ {
			advance(orig, step)
			advance(restored, step)
			for u := 0; u < users; u++ {
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
	orig.Persist(w)
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
	other.Persist(r)
	if r.Err() == nil {
		t.Fatal("dimension mismatch not rejected")
	}
}

// TestWindowStateRoundTrip exercises the windowed state: retargets before
// and after the snapshot, with the per-slot shadowing carried across the
// restore, on both kernels. The window stores no slot map, so the test
// keeps each user's candidate list the way the engine does.
func TestWindowStateRoundTrip(t *testing.T) {
	const users, width = 2, 3
	for _, exact := range []bool{true, false} {
		orig := NewWindow(users, width, DefaultPathLoss(), 8, 50)
		seedBatch(orig.Batch, users, 777)

		advance := func(wd *Window, u, step int, travelled float64) {
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
				return
			}
			advanceFastChecked(t, wd.Batch, u, dist, travelled)
		}

		start, moved := []int32{0, 1, 2}, []int32{1, 2, 5}
		for u := 0; u < users; u++ {
			orig.Retarget(u, nil, start)
		}
		for step := 0; step < 4; step++ {
			for u := 0; u < users; u++ {
				advance(orig, u, step, 3)
			}
		}
		orig.Retarget(0, start, moved) // user 0 crosses into a new bucket
		advance(orig, 0, 4, 3)

		restored := NewWindow(users, width, DefaultPathLoss(), 8, 50)
		snapshotState(t, orig.Persist, restored.Persist)

		// Both copies now retarget user 1 and keep advancing; the entering
		// slots' fresh draws come from the restored substreams.
		next := []int32{2, 3, 4}
		orig.Retarget(1, start, next)
		restored.Retarget(1, start, next)
		for step := 5; step < 30; step++ {
			for u := 0; u < users; u++ {
				advance(orig, u, step, float64((step+u)%3))
				advance(restored, u, step, float64((step+u)%3))
				if !rowsEqual(orig.GainRow(u), restored.GainRow(u)) {
					t.Fatalf("exact=%v: user %d gain row diverged at step %d", exact, u, step)
				}
			}
		}
	}
}
