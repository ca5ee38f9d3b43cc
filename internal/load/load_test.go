package load

import (
	"math"
	"testing"
)

func TestVecSetGetReplace(t *testing.T) {
	var v Vec
	if v.Len() != 0 {
		t.Fatal("zero Vec should be empty")
	}
	v.Set(3, 1.5)
	v.Set(0, 2.0)
	v.Set(3, 4.0) // replace
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if x, ok := v.Get(3); !ok || x != 4.0 {
		t.Errorf("Get(3) = %v, %v", x, ok)
	}
	if x, ok := v.Get(0); !ok || x != 2.0 {
		t.Errorf("Get(0) = %v, %v", x, ok)
	}
	if _, ok := v.Get(7); ok {
		t.Error("Get(7) should miss")
	}
	c, x := v.At(0)
	if c != 3 || x != 4.0 {
		t.Errorf("At(0) = %d, %v (insertion order expected)", c, x)
	}
}

func TestVecResetKeepsCapacityAndAllocFree(t *testing.T) {
	v := MakeVec(4)
	allocs := testing.AllocsPerRun(100, func() {
		v.Reset()
		v.Set(0, 1)
		v.Set(5, 2)
		v.Set(2, 3)
	})
	if allocs != 0 {
		t.Errorf("Reset+Set allocated %v times per run, want 0", allocs)
	}
}

func TestVecFromMapSortedByCell(t *testing.T) {
	v := FromMap(map[int]float64{5: 0.5, 1: 0.1, 3: 0.3})
	want := []int{1, 3, 5}
	if v.Len() != 3 {
		t.Fatalf("Len = %d", v.Len())
	}
	for i, wc := range want {
		c, x := v.At(i)
		if c != wc {
			t.Errorf("At(%d) cell = %d, want %d", i, c, wc)
		}
		if math.Abs(x-float64(wc)/10) > 1e-15 {
			t.Errorf("At(%d) val = %v", i, x)
		}
	}
}

func TestVecCloneIndependence(t *testing.T) {
	var v Vec
	v.Set(1, 2)
	c := v.Clone()
	v.Set(1, 9)
	v.Set(4, 4)
	if x, _ := c.Get(1); x != 2 {
		t.Error("Clone should not share mutations")
	}
	if c.Len() != 1 {
		t.Error("Clone grew with the original")
	}
	s := v.CloneScaled(2)
	if x, _ := s.Get(1); x != 18 {
		t.Errorf("CloneScaled value = %v, want 18", x)
	}
	if x, _ := s.Get(4); x != 8 {
		t.Errorf("CloneScaled value = %v, want 8", x)
	}
}

func TestVecAddToAndSum(t *testing.T) {
	var v Vec
	v.Set(0, 1)
	v.Set(2, 3)
	v.Set(9, 100) // out of range for dst: ignored
	dst := []float64{10, 10, 10}
	v.AddTo(dst)
	if dst[0] != 11 || dst[1] != 10 || dst[2] != 13 {
		t.Errorf("AddTo -> %v", dst)
	}
	sum := 0.0
	for i := 0; i < v.Len(); i++ {
		_, x := v.At(i)
		sum += x
	}
	if sum != 104 {
		t.Errorf("sum of values = %v, want 104", sum)
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger(3)
	if len(l.Values()) != 3 {
		t.Fatalf("ledger tracks %d cells", len(l.Values()))
	}
	l.Fill(2)
	l.Add(1, 0.5)
	var v Vec
	v.Set(0, 1)
	v.Set(1, 1)
	l.AddVec(v)
	if l.Get(0) != 3 || l.Get(1) != 3.5 || l.Get(2) != 2 {
		t.Errorf("ledger = %v", l.Values())
	}
	// Values is a live view, not a copy.
	l.Values()[2] = 7
	if l.Get(2) != 7 {
		t.Error("Values must alias the ledger storage")
	}
	// Fill/Add are allocation free.
	allocs := testing.AllocsPerRun(100, func() {
		l.Fill(0)
		l.Add(2, 1)
	})
	if allocs != 0 {
		t.Errorf("Ledger ops allocated %v times per run", allocs)
	}
}
