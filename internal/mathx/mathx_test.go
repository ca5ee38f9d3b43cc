package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBLinearRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -10, -3, 0, 3, 10, 20, 40} {
		got := DB(Linear(db))
		if !AlmostEqual(got, db, 1e-9) {
			t.Errorf("DB(Linear(%v)) = %v, want %v", db, got, db)
		}
	}
}

func TestDBKnownValues(t *testing.T) {
	if !AlmostEqual(DB(1), 0, 1e-12) {
		t.Errorf("DB(1) = %v, want 0", DB(1))
	}
	if !AlmostEqual(DB(10), 10, 1e-12) {
		t.Errorf("DB(10) = %v, want 10", DB(10))
	}
	if !AlmostEqual(Linear(3), 1.9952623149688795, 1e-9) {
		t.Errorf("Linear(3) = %v", Linear(3))
	}
	if !math.IsInf(DB(0), -1) {
		t.Errorf("DB(0) = %v, want -Inf", DB(0))
	}
}

func TestQFuncKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.15865525393145707},
		{2, 0.022750131948179195},
		{3, 0.0013498980316300933},
		{-1, 0.8413447460685429},
	}
	for _, c := range cases {
		if got := QFunc(c.x); !AlmostEqual(got, c.want, 1e-9) {
			t.Errorf("QFunc(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestQInvRoundTrip(t *testing.T) {
	for _, p := range []float64{0.4, 0.1, 0.01, 1e-3, 1e-6} {
		x := QInv(p)
		if got := QFunc(x); !AlmostEqual(got, p, 1e-6) {
			t.Errorf("QFunc(QInv(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(QInv(0), 1) {
		t.Errorf("QInv(0) should be +Inf")
	}
	if !math.IsInf(QInv(1), -1) {
		t.Errorf("QInv(1) should be -Inf")
	}
}

func TestQFuncMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 10)
		b = math.Mod(math.Abs(b), 10)
		if a > b {
			a, b = b, a
		}
		return QFunc(a) >= QFunc(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("expected near-equal values to compare equal")
	}
	if AlmostEqual(1.0, 1.1, 1e-9) {
		t.Error("expected distinct values to compare unequal")
	}
	if AlmostEqual(math.NaN(), math.NaN(), 1) {
		t.Error("NaN should not be AlmostEqual to anything")
	}
	if !AlmostEqual(math.Inf(1), math.Inf(1), 1e-9) {
		t.Error("equal infinities should compare equal")
	}
	if AlmostEqual(math.Inf(1), math.Inf(-1), 1e-9) {
		t.Error("opposite infinities should not compare equal")
	}
	if !AlmostEqual(1e12, 1e12+1, 1e-9) {
		t.Error("relative tolerance should admit large near-equal values")
	}
}

func TestMeanSumMinMax(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := MeanFloat(xs); got != 2.5 {
		t.Errorf("MeanFloat = %v", got)
	}
	if got := SumFloat(xs); got != 10 {
		t.Errorf("SumFloat = %v", got)
	}
	if got := MaxFloat(xs); got != 4 {
		t.Errorf("MaxFloat = %v", got)
	}
	if got := MinFloat(xs); got != 1 {
		t.Errorf("MinFloat = %v", got)
	}
	if got := MeanFloat(nil); got != 0 {
		t.Errorf("MeanFloat(nil) = %v", got)
	}
	if !math.IsInf(MaxFloat(nil), -1) {
		t.Errorf("MaxFloat(nil) should be -Inf")
	}
	if !math.IsInf(MinFloat(nil), 1) {
		t.Errorf("MinFloat(nil) should be +Inf")
	}
}

func TestMinMaxInt(t *testing.T) {
	if MaxInt(2, 3) != 3 || MaxInt(3, 2) != 3 {
		t.Error("MaxInt broken")
	}
	if MinInt(2, 3) != 2 || MinInt(3, 2) != 2 {
		t.Error("MinInt broken")
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(0, 10, 0.5); got != 5 {
		t.Errorf("Lerp = %v", got)
	}
	if got := Lerp(2, 2, 0.7); got != 2 {
		t.Errorf("Lerp same endpoints = %v", got)
	}
	if got := Lerp(1, 3, 0); got != 1 {
		t.Errorf("Lerp t=0 = %v", got)
	}
	if got := Lerp(1, 3, 1); got != 3 {
		t.Errorf("Lerp t=1 = %v", got)
	}
}

func TestSq(t *testing.T) {
	if Sq(3) != 9 {
		t.Error("Sq broken")
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return Sq(x) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
