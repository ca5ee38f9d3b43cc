package mobility

import (
	"bytes"
	"math"
	"testing"

	"jabasd/internal/checkpoint"
	"jabasd/internal/rng"
)

// snapshot round-trips enc into dec through a one-section stream.
func snapshot(t *testing.T, enc, dec func(*checkpoint.Codec)) {
	t.Helper()
	var buf bytes.Buffer
	w := checkpoint.NewWriter(&buf)
	w.Section("mob")
	enc(w)
	if err := w.Close(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	r, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if err := r.Section("mob"); err != nil {
		t.Fatal(err)
	}
	dec(r)
	if err := r.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// TestWaypointBatchStateRoundTrip advances a batch mid-journey, snapshots
// it into a freshly constructed batch and compares every user's trajectory
// bit for bit afterwards (positions, travel distances and speeds all ride
// the restored draw streams).
func TestWaypointBatchStateRoundTrip(t *testing.T) {
	region := Region{Width: 2000, Height: 1800}
	const n = 6
	parent := rng.New(77)
	orig := NewWaypointBatch(region, 1, 20, 30, n)
	for i := 0; i < n; i++ {
		orig.SeedUser(i, parent.Split(uint64(i)))
	}
	const dt = 0.5
	for step := 0; step < 200; step++ {
		for i := 0; i < n; i++ {
			orig.Advance(i, dt)
		}
	}

	restored := NewWaypointBatch(region, 1, 20, 30, n) // unseeded: decode overwrites
	snapshot(t, orig.Persist, restored.Persist)

	for step := 0; step < 2000; step++ {
		for i := 0; i < n; i++ {
			a := orig.Advance(i, dt)
			b := restored.Advance(i, dt)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("user %d: travel diverged at step %d: %v vs %v", i, step, a, b)
			}
			pa, pb := orig.Position(i), restored.Position(i)
			if math.Float64bits(pa.X) != math.Float64bits(pb.X) || math.Float64bits(pa.Y) != math.Float64bits(pb.Y) {
				t.Fatalf("user %d: position diverged at step %d: %v vs %v", i, step, pa, pb)
			}
		}
	}
}

func TestWaypointBatchDecodeRejectsSizeMismatch(t *testing.T) {
	region := Region{Width: 100, Height: 100}
	orig := NewWaypointBatch(region, 1, 5, 10, 3)
	for i := 0; i < 3; i++ {
		orig.SeedUser(i, rng.New(uint64(i+1)))
	}
	var buf bytes.Buffer
	w := checkpoint.NewWriter(&buf)
	w.Section("mob")
	orig.Persist(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	smaller := NewWaypointBatch(region, 1, 5, 10, 2)
	r, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("mob"); err != nil {
		t.Fatal(err)
	}
	smaller.Persist(r)
	if r.Err() == nil {
		t.Fatal("user-count mismatch not rejected")
	}
}

// TestRandomWaypointStateRoundTrip round-trips one user through
// PersistUser, the layout of the checkpoint's voice section: user 1 of a
// batch is restored into user 1 of a batch seeded otherwise, and the two
// trajectories agree bit for bit afterwards.
func TestRandomWaypointStateRoundTrip(t *testing.T) {
	region := Region{Width: 1500, Height: 1500}
	orig := NewWaypointBatch(region, 0.5, 15, 30, 3)
	restored := NewWaypointBatch(region, 0.5, 15, 30, 3)
	for i := 0; i < 3; i++ {
		orig.SeedUser(i, rng.New(uint64(11+i)))
		restored.SeedUser(i, rng.New(uint64(99+i)))
	}
	const dt = 0.5
	for step := 0; step < 300; step++ {
		orig.Advance(1, dt)
	}

	snapshot(t, func(c *checkpoint.Codec) { orig.PersistUser(c, 1) },
		func(c *checkpoint.Codec) { restored.PersistUser(c, 1) })

	for step := 0; step < 3000; step++ {
		a := orig.Advance(1, dt)
		b := restored.Advance(1, dt)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("travel diverged at step %d: %v vs %v", step, a, b)
		}
		pa, pb := orig.Position(1), restored.Position(1)
		if math.Float64bits(pa.X) != math.Float64bits(pb.X) || math.Float64bits(pa.Y) != math.Float64bits(pb.Y) {
			t.Fatalf("position diverged at step %d: %v vs %v", step, pa, pb)
		}
	}
}
