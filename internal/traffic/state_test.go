package traffic

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
	w.Section("traffic")
	enc(w)
	if err := w.Close(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	r, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if err := r.Section("traffic"); err != nil {
		t.Fatal(err)
	}
	dec(r)
	if err := r.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// TestVoiceModelStateRoundTrip advances a voice source half-way, snapshots
// it and checks the restored copy reproduces the straight-through activity
// pattern exactly (the on/off phases ride the draw stream, so any state
// drift shows up within a few transitions).
func TestVoiceModelStateRoundTrip(t *testing.T) {
	orig := NewVoiceModel(rng.New(42), 1.0, 1.35)
	const dt = 0.02
	for i := 0; i < 500; i++ {
		orig.Advance(dt)
	}

	restored := NewVoiceModel(rng.New(7), 1.0, 1.35)
	snapshot(t, orig.Persist, restored.Persist)

	if orig.Active() != restored.Active() {
		t.Fatal("restored activity differs at the snapshot point")
	}
	for i := 0; i < 5000; i++ {
		a := orig.Advance(dt)
		b := restored.Advance(dt)
		if a != b || orig.Active() != restored.Active() {
			t.Fatalf("voice activity diverged at step %d", i)
		}
	}
}

// TestDataModelStateRoundTrip snapshots the browsing source in both of its
// phases — thinking (no pending request) and waiting on a pending burst —
// and checks the restored copy generates bit-identical future requests.
func TestDataModelStateRoundTrip(t *testing.T) {
	const dt = 0.02
	orig := NewDataModel(rng.New(1234), 17, DefaultDataModelConfig())
	now := 0.0
	// Advance until a request is outstanding, so the pending branch is
	// exercised first.
	for orig.Pending() == nil {
		orig.Advance(dt, now)
		now += dt
	}

	for phase := 0; phase < 2; phase++ {
		restored := NewDataModel(rng.New(999), 17, DefaultDataModelConfig())
		snapshot(t, orig.Persist, restored.Persist)

		if (orig.Pending() == nil) != (restored.Pending() == nil) {
			t.Fatalf("phase %d: pending presence diverged", phase)
		}
		if op, rp := orig.Pending(), restored.Pending(); op != nil {
			if rp.UserID != op.UserID ||
				math.Float64bits(rp.SizeBits) != math.Float64bits(op.SizeBits) ||
				math.Float64bits(rp.ArrivalTime) != math.Float64bits(op.ArrivalTime) ||
				math.Float64bits(rp.Priority) != math.Float64bits(op.Priority) {
				t.Fatalf("phase %d: pending request diverged: %+v vs %+v", phase, rp, op)
			}
		}
		if orig.Pending() != nil {
			// Complete the outstanding burst so both sources go back to
			// thinking and the cycle loop below can make progress.
			orig.BurstDone()
			restored.BurstDone()
		}

		// Drive both sources through several burst cycles and compare every
		// emitted request bit for bit.
		bursts := 0
		for step := 0; bursts < 20 && step < 1_000_000; step++ {
			a := orig.Advance(dt, now)
			b := restored.Advance(dt, now)
			now += dt
			if (a == nil) != (b == nil) {
				t.Fatalf("phase %d: request emission diverged at t=%v", phase, now)
			}
			if a != nil {
				if math.Float64bits(a.SizeBits) != math.Float64bits(b.SizeBits) ||
					a.ArrivalTime != b.ArrivalTime || a.Priority != b.Priority {
					t.Fatalf("phase %d: emitted request diverged: %+v vs %+v", phase, b, a)
				}
				orig.BurstDone()
				restored.BurstDone()
				bursts++
			}
		}
		if bursts < 20 {
			t.Fatalf("phase %d: only %d bursts emitted", phase, bursts)
		}
		// Second pass snapshots while thinking (BurstDone just ran).
	}
}

// TestDataModelLoadStepSurvivesRoundTrip pins the one runtime-mutable config
// field: a stepped mean reading time must be part of the state.
func TestDataModelLoadStepSurvivesRoundTrip(t *testing.T) {
	orig := NewDataModel(rng.New(5), 3, DefaultDataModelConfig())
	orig.SetMeanReadingTime(2.5)
	restored := NewDataModel(rng.New(6), 3, DefaultDataModelConfig())
	snapshot(t, orig.Persist, restored.Persist)
	if restored.cfg.MeanReadingTimeSec != orig.cfg.MeanReadingTimeSec {
		t.Fatalf("mean reading time not restored: %v vs %v",
			restored.cfg.MeanReadingTimeSec, orig.cfg.MeanReadingTimeSec)
	}
}
