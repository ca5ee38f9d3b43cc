package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBLinearRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -10, -3, 0, 3, 10, 20, 40} {
		got := DB(Linear(db))
		if math.Abs(got-db) > 1e-9 {
			t.Errorf("DB(Linear(%v)) = %v, want %v", db, got, db)
		}
	}
}

func TestDBKnownValues(t *testing.T) {
	if math.Abs(DB(1)) > 1e-12 {
		t.Errorf("DB(1) = %v, want 0", DB(1))
	}
	if math.Abs(DB(10)-10) > 1e-12 {
		t.Errorf("DB(10) = %v, want 10", DB(10))
	}
	if math.Abs(Linear(3)-1.9952623149688795) > 1e-9 {
		t.Errorf("Linear(3) = %v", Linear(3))
	}
	if !math.IsInf(DB(0), -1) {
		t.Errorf("DB(0) = %v, want -Inf", DB(0))
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp(5,0,3) = %v", got)
	}
	if got := Clamp(-1, 0, 3); got != 0 {
		t.Errorf("Clamp(-1,0,3) = %v", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp(2,0,3) = %v", got)
	}
}

func TestClampProperty(t *testing.T) {
	f := func(v, a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
