package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningMoments(t *testing.T) {
	var r Running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Add(x)
	}
	if r.n != 8 {
		t.Errorf("count = %d", r.n)
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(r.Variance()-32.0/7.0) > 1e-9 {
		t.Errorf("Variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 ||
		r.StdErr() != 0 || r.ConfidenceInterval95() != 0 {
		t.Error("empty Running should return zeros")
	}
}

func TestConfidenceInterval(t *testing.T) {
	var r Running
	for i := 0; i < 10; i++ {
		r.Add(float64(i))
	}
	ci := r.ConfidenceInterval95()
	if ci <= 0 {
		t.Errorf("CI should be positive, got %v", ci)
	}
	// CI should be t_(9) * sd/sqrt(10).
	want := 2.262 * r.StdDev() / math.Sqrt(10)
	if math.Abs(ci-want) > 1e-9 {
		t.Errorf("CI = %v, want %v", ci, want)
	}
}

func TestTCritical(t *testing.T) {
	if !math.IsNaN(tCritical95(0)) {
		t.Error("df=0 should be NaN")
	}
	if tCritical95(1) != 12.706 {
		t.Error("df=1 wrong")
	}
	if tCritical95(100) != 1.96 {
		t.Error("large df should fall back to 1.96")
	}
}

func TestSampleQuantile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if len(s.xs) != 100 {
		t.Errorf("len = %d", len(s.xs))
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("q1 = %v", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := s.Quantile(0.9); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 = %v, want 90.1", got)
	}
	if math.Abs(s.Mean()-50.5) > 1e-9 {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || len(s.xs) != 0 {
		t.Error("empty sample should return zeros")
	}
}

func TestSampleQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := seed
		var sm Sample
		for i := 0; i < 50; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			sm.Add(float64(s>>11) / (1 << 53))
		}
		return sm.Quantile(0.25) <= sm.Quantile(0.5) &&
			sm.Quantile(0.5) <= sm.Quantile(0.75) &&
			sm.Quantile(0.75) <= sm.Quantile(0.99)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 2)  // value 2 during [0, 10)
	tw.Observe(10, 4) // value 4 during [10, 20)
	tw.Finish(20)
	if math.Abs(tw.Mean()-3) > 1e-12 {
		t.Errorf("time-weighted mean = %v, want 3", tw.Mean())
	}
	if tw.duration != 20 {
		t.Errorf("duration = %v", tw.duration)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var tw TimeWeighted
	if tw.Mean() != 0 || tw.duration != 0 {
		t.Error("empty TimeWeighted should be zero")
	}
	tw.Finish(5) // finishing before observing should be a no-op
	if tw.duration != 0 {
		t.Error("Finish before Observe should not accumulate")
	}
}

func TestTimeWeightedOutOfOrderIgnored(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(10, 1)
	tw.Observe(5, 99) // goes "backwards": no area accumulated, value replaced
	tw.Finish(15)
	if math.Abs(tw.Mean()-99) > 1e-12 {
		t.Errorf("mean = %v, want 99 (only the final segment counts)", tw.Mean())
	}
}
