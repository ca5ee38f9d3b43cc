package mac

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"jabasd/internal/checkpoint"
)

// TestMachineStateRoundTrip drives a machine through its decay timeline,
// snapshots it mid-way and checks that the restored machine's state, set-up
// delays and touch behaviour match the straight-through machine exactly.
func TestMachineStateRoundTrip(t *testing.T) {
	for _, snapAt := range []float64{0.5, 3, 12} {
		m := MustNewMachine(DefaultConfig())
		m.Touch(0.25)
		m.AdvanceTo(snapAt)

		var buf bytes.Buffer
		w := checkpoint.NewWriter(&buf)
		w.Section("mac")
		m.Persist(w)
		if err := w.Close(); err != nil {
			t.Fatalf("encode: %v", err)
		}
		restored := MustNewMachine(DefaultConfig())
		r, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Section("mac"); err != nil {
			t.Fatal(err)
		}
		restored.Persist(r)
		if err := r.Close(); err != nil {
			t.Fatalf("decode: %v", err)
		}

		if !reflect.DeepEqual(m, restored) {
			t.Fatalf("snapAt=%v: restored %+v != original %+v", snapAt, restored, m)
		}
		for _, now := range []float64{snapAt + 0.1, snapAt + 2.5, snapAt + 11} {
			if a, b := m.AdvanceTo(now), restored.AdvanceTo(now); a != b {
				t.Fatalf("snapAt=%v: AdvanceTo(%v) diverged: %v vs %v", snapAt, now, a, b)
			}
			if a, b := m.SetupDelayNow(now), restored.SetupDelayNow(now); a != b {
				t.Fatalf("snapAt=%v: SetupDelayNow(%v) diverged: %v vs %v", snapAt, now, a, b)
			}
		}
		m.Touch(snapAt + 12)
		restored.Touch(snapAt + 12)
		if !reflect.DeepEqual(m, restored) {
			t.Fatalf("snapAt=%v: post-restore Touch diverged", snapAt)
		}
	}
}

func TestMachineDecodeRejectsInvalidState(t *testing.T) {
	var buf bytes.Buffer
	w := checkpoint.NewWriter(&buf)
	w.Section("mac")
	state, t0 := 99, 0.0 // no such State
	w.Int(&state)
	w.F64(&t0)
	w.F64(&t0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("mac"); err != nil {
		t.Fatal(err)
	}
	m := MustNewMachine(DefaultConfig())
	m.Persist(r)
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "invalid MAC state") {
		t.Fatalf("invalid state not rejected: %v", r.Err())
	}
}
