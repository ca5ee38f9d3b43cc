package stats

import (
	"bytes"
	"reflect"
	"testing"

	"jabasd/internal/checkpoint"
)

// roundTrip encodes with enc and decodes with dec through a one-section
// stream, failing the test on any framing error.
func roundTrip(t *testing.T, enc, dec func(*checkpoint.Codec)) {
	t.Helper()
	var buf bytes.Buffer
	w := checkpoint.NewWriter(&buf)
	w.Section("stats")
	enc(w)
	if err := w.Close(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	r, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if err := r.Section("stats"); err != nil {
		t.Fatal(err)
	}
	dec(r)
	if err := r.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestRunningStateRoundTrip(t *testing.T) {
	var orig Running
	for _, x := range []float64{3, -1, 0.5, 2.25, -7} {
		orig.Add(x)
	}
	var restored Running
	roundTrip(t, orig.Persist, restored.Persist)
	if !reflect.DeepEqual(orig, restored) {
		t.Fatalf("restored %+v != original %+v", restored, orig)
	}
	// Further observations must produce identical accumulator states.
	orig.Add(1.75)
	restored.Add(1.75)
	if !reflect.DeepEqual(orig, restored) {
		t.Fatalf("post-restore Add diverged: %+v vs %+v", restored, orig)
	}
}

// TestSampleStateRoundTrip pins the insertion order: Mean sums the xs in
// the order they were added, so the restored sample must preserve it (and
// the sorted flag) exactly.
func TestSampleStateRoundTrip(t *testing.T) {
	var orig Sample
	for _, x := range []float64{0.3, 0.1, 0.2, 1e-17, 1.0} {
		orig.Add(x)
	}
	for _, sorted := range []bool{false, true} {
		if sorted {
			orig.Quantile(0.5) // forces the sort
		}
		var restored Sample
		roundTrip(t, orig.Persist, restored.Persist)
		if !reflect.DeepEqual(orig, restored) {
			t.Fatalf("sorted=%v: restored %+v != original %+v", sorted, restored, orig)
		}
		if orig.Mean() != restored.Mean() {
			t.Fatalf("sorted=%v: Mean diverged", sorted)
		}
	}
}

func TestTimeWeightedStateRoundTrip(t *testing.T) {
	var orig TimeWeighted
	orig.Observe(1.0, 2)
	orig.Observe(1.5, 3)
	orig.Observe(4.25, 0)
	var restored TimeWeighted
	roundTrip(t, orig.Persist, restored.Persist)
	if !reflect.DeepEqual(orig, restored) {
		t.Fatalf("restored %+v != original %+v", restored, orig)
	}
	orig.Finish(10)
	restored.Finish(10)
	if !reflect.DeepEqual(orig, restored) {
		t.Fatalf("post-restore Finish diverged: %+v vs %+v", restored, orig)
	}
}
