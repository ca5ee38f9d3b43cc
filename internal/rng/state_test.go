package rng

import (
	"bytes"
	"math"
	"testing"
	"unsafe"

	"jabasd/internal/checkpoint"
)

// TestSourceStateRoundTrip checks that a decoded source continues its
// stream bit for bit — including the cached Box-Muller spare, so the parity
// of prior StdNormal calls is part of the state.
func TestSourceStateRoundTrip(t *testing.T) {
	for _, normals := range []int{0, 1, 2, 7} {
		src := New(12345)
		for i := 0; i < 50; i++ {
			src.Uint64()
		}
		for i := 0; i < normals; i++ {
			src.StdNormal()
		}

		var buf bytes.Buffer
		w := checkpoint.NewWriter(&buf)
		w.Section("rng")
		src.Persist(w)
		if err := w.Close(); err != nil {
			t.Fatalf("encode: %v", err)
		}

		restored := New(999) // deliberately different state, fully overwritten
		r, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		if err := r.Section("rng"); err != nil {
			t.Fatal(err)
		}
		restored.Persist(r)
		if err := r.Close(); err != nil {
			t.Fatalf("decode: %v", err)
		}

		for i := 0; i < 100; i++ {
			if a, b := src.StdNormal(), restored.StdNormal(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("normals=%d: StdNormal diverged at draw %d: %v vs %v", normals, i, a, b)
			}
			if a, b := src.Uint64(), restored.Uint64(); a != b {
				t.Fatalf("normals=%d: Uint64 diverged at draw %d: %#x vs %#x", normals, i, a, b)
			}
		}
	}
}

// TestSourceSize pins a Source at 40 bytes: the channel batches hold one
// per (user, window slot), about 2.5 million at city scale, so a wider
// struct shows up directly in the heap.
func TestSourceSize(t *testing.T) {
	if got := unsafe.Sizeof(Source{}); got != 40 {
		t.Fatalf("Source is %d bytes, want 40", got)
	}
}

// TestSourceDecodeRefusesBadSpare: a stored spare flagged as present must
// be a value Box-Muller can return. A non-finite one, or the empty-spare
// sentinel, fails the reader instead of being restored; an unflagged spare
// is ignored whatever its value.
func TestSourceDecodeRefusesBadSpare(t *testing.T) {
	decode := func(spare float64, has bool) error {
		var buf bytes.Buffer
		w := checkpoint.NewWriter(&buf)
		w.Section("rng")
		for i := uint64(1); i <= 4; i++ {
			w.U64(&i)
		}
		w.F64(&spare)
		w.Bool(&has)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Section("rng"); err != nil {
			t.Fatal(err)
		}
		var src Source
		src.Persist(r)
		return r.Close()
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), noSpare} {
		if err := decode(bad, true); err == nil {
			t.Errorf("flagged spare %v decoded", bad)
		}
		if err := decode(bad, false); err != nil {
			t.Errorf("unflagged spare %v refused: %v", bad, err)
		}
	}
	if err := decode(-1.25, true); err != nil {
		t.Errorf("valid spare refused: %v", err)
	}
}
