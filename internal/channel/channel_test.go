package channel

import (
	"math"
	"testing"

	"jabasd/internal/rng"
)

func TestPathLossMonotone(t *testing.T) {
	pl := DefaultPathLoss()
	prev := pl.LossDB(20)
	for d := 50.0; d <= 5000; d += 50 {
		cur := pl.LossDB(d)
		if cur <= prev {
			t.Fatalf("path loss not increasing at d=%v: %v <= %v", d, cur, prev)
		}
		prev = cur
	}
}

func TestPathLossReferencePoint(t *testing.T) {
	pl := DefaultPathLoss()
	if math.Abs(pl.LossDB(1000)-128.1) > 1e-9 {
		t.Errorf("loss at reference distance = %v, want 128.1", pl.LossDB(1000))
	}
	// One decade further: +10*n dB.
	if math.Abs(pl.LossDB(10000)-(128.1+37)) > 1e-9 {
		t.Errorf("loss at 10 km = %v", pl.LossDB(10000))
	}
}

func TestPathLossClampsNearField(t *testing.T) {
	pl := DefaultPathLoss()
	if pl.LossDB(0.001) != pl.LossDB(pl.MinDistance) {
		t.Error("near-field distances should be clamped")
	}
}

func TestShadowingStatistics(t *testing.T) {
	src := rng.New(5)
	s := NewShadowing(src, 8, 50)
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		// Move far each step so samples are nearly independent.
		v := s.Advance(500)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.3 {
		t.Errorf("shadowing mean = %v, want ~0", mean)
	}
	if math.Abs(sd-8) > 0.5 {
		t.Errorf("shadowing std = %v, want ~8", sd)
	}
}

func TestShadowingCorrelation(t *testing.T) {
	src := rng.New(7)
	s := NewShadowing(src, 8, 50)
	v0 := s.Advance(0)
	v1 := s.Advance(1) // 1 m travelled => rho = exp(-1/50) ~ 0.98
	if math.Abs(v1-v0) > 8 {
		t.Errorf("shadowing jumped too far over 1 m: %v -> %v", v0, v1)
	}
	// Negative distances are treated as zero travel (perfect correlation in mean).
	v2 := s.Advance(-10)
	if math.IsNaN(v2) {
		t.Error("Advance(-10) produced NaN")
	}
	if s.CurrentDB() != v2 {
		t.Error("CurrentDB should track last Advance")
	}
}

func TestLinkLongTermGain(t *testing.T) {
	src := rng.New(11)
	cfg := DefaultLinkConfig()
	cfg.ShadowSigmaDB = 0 // isolate path loss
	l := NewLink(src, cfg)
	l.Update(1000, 0)
	if math.Abs(l.LongTermGainDB()-(-128.1)) > 1e-9 {
		t.Errorf("long-term gain = %v dB, want -128.1", l.LongTermGainDB())
	}
	if l.distance != 1000 {
		t.Errorf("distance = %v", l.distance)
	}
	l.Update(2000, 1000)
	if l.LongTermGainDB() >= -128.1 {
		t.Error("gain should decrease with distance")
	}
}

func TestLinkFastFadingUnitMean(t *testing.T) {
	src := rng.New(17)
	l := NewLink(src, DefaultLinkConfig())
	l.Update(500, 0)
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += l.FastGain(float64(i) * 0.013)
	}
	mean := sum / float64(n)
	if mean < 0.6 || mean > 1.4 {
		t.Errorf("fast fading mean power = %v, want ~1", mean)
	}
}
