package load

import (
	"bytes"
	"reflect"
	"testing"

	"jabasd/internal/checkpoint"
)

func TestVecStateRoundTrip(t *testing.T) {
	orig := MakeVec(4)
	orig.Set(7, 1.25)
	orig.Set(2, -0.5)
	orig.Set(11, 3e-9)

	var buf bytes.Buffer
	w := checkpoint.NewWriter(&buf)
	w.Section("vec")
	orig.Persist(w)
	var empty Vec
	empty.Persist(w)
	if err := w.Close(); err != nil {
		t.Fatalf("encode: %v", err)
	}

	r, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if err := r.Section("vec"); err != nil {
		t.Fatal(err)
	}
	var restored, restoredEmpty Vec
	restored.Persist(r)
	restoredEmpty.Persist(r)
	if err := r.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}

	if restored.Len() != orig.Len() {
		t.Fatalf("restored %d entries, want %d", restored.Len(), orig.Len())
	}
	for i := 0; i < orig.Len(); i++ {
		oc, ov := orig.At(i)
		rc, rv := restored.At(i)
		if oc != rc || ov != rv {
			t.Fatalf("entry %d: restored (%d, %v), want (%d, %v)", i, rc, rv, oc, ov)
		}
	}
	if restoredEmpty.Len() != 0 {
		t.Fatalf("restored empty vec has %d entries", restoredEmpty.Len())
	}
	// The entry order is part of the state (AddVec walks it), so the slices
	// themselves must match, not just the cell -> value mapping.
	if !reflect.DeepEqual(orig.cells, restored.cells) {
		t.Fatalf("cell order diverged: %v vs %v", restored.cells, orig.cells)
	}
}
