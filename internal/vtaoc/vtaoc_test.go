package vtaoc

import (
	"math"
	"testing"
	"testing/quick"

	"jabasd/internal/mathx"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{NumModes: 0, TargetBER: 1e-3, BaseThroughput: 0.1},
		{NumModes: 6, TargetBER: 0, BaseThroughput: 0.1},
		{NumModes: 6, TargetBER: 0.7, BaseThroughput: 0.1},
		{NumModes: 6, TargetBER: 1e-3, BaseThroughput: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config should be valid: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with invalid config should panic")
		}
	}()
	MustNew(Config{})
}

func TestModeTableShape(t *testing.T) {
	c := MustNew(DefaultConfig())
	modes := c.Modes()
	if len(modes) != 6 {
		t.Fatalf("mode count = %d", len(modes))
	}
	// Throughput ladder 1/32 .. 1 and strictly increasing thresholds.
	for i, m := range modes {
		wantTp := math.Pow(2, float64(i)) / 32
		if math.Abs(m.Throughput-wantTp) > 1e-12 {
			t.Errorf("mode %d throughput = %v, want %v", m.Index, m.Throughput, wantTp)
		}
		if i > 0 && m.MinCSIDB <= modes[i-1].MinCSIDB {
			t.Errorf("thresholds not strictly increasing at mode %d", m.Index)
		}
	}
	// Threshold spacing should be ~3 dB (factor-2 SNR per mode).
	for i := 1; i < len(modes); i++ {
		gap := modes[i].MinCSIDB - modes[i-1].MinCSIDB
		if math.Abs(gap-3.0103) > 0.01 {
			t.Errorf("threshold gap %d = %v, want ~3.01 dB", i, gap)
		}
	}
	if c.NumModes() != 6 || len(c.Thresholds()) != 6 {
		t.Error("NumModes/Thresholds inconsistent")
	}
}

func TestConstantBERAtThresholds(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNew(cfg)
	for _, m := range c.Modes() {
		gamma := mathx.Linear(m.MinCSIDB)
		ber := BER(m.Index, gamma)
		if math.Abs(ber-cfg.TargetBER)/cfg.TargetBER > 1e-9 {
			t.Errorf("mode %d BER at threshold = %v, want %v", m.Index, ber, cfg.TargetBER)
		}
		// Above the threshold the BER must be below target (constant-BER mode
		// guarantees the error level over the whole mode region).
		if b := BER(m.Index, gamma*2); b >= cfg.TargetBER {
			t.Errorf("mode %d BER above threshold = %v, should be < target", m.Index, b)
		}
	}
	if BER(1, 0) != 0.5 || BER(1, -5) != 0.5 {
		t.Error("BER at non-positive SNR should be 0.5")
	}
}

func TestSelectModeBoundaries(t *testing.T) {
	c := MustNew(DefaultConfig())
	modes := c.Modes()
	if got := c.SelectMode(modes[0].MinCSIDB - 1); got != 0 {
		t.Errorf("below first threshold: mode %d, want 0", got)
	}
	for _, m := range modes {
		if got := c.SelectMode(m.MinCSIDB); got != m.Index {
			t.Errorf("at threshold of mode %d: got %d", m.Index, got)
		}
		if got := c.SelectMode(m.MinCSIDB + 0.1); got != m.Index {
			t.Errorf("just above threshold of mode %d: got %d", m.Index, got)
		}
	}
	if got := c.SelectMode(1000); got != len(modes) {
		t.Errorf("huge CSI should select highest mode, got %d", got)
	}
}

func TestSelectModeMonotoneProperty(t *testing.T) {
	c := MustNew(DefaultConfig())
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		a = math.Mod(a, 60)
		b = math.Mod(b, 60)
		if a > b {
			a, b = b, a
		}
		return c.SelectMode(a) <= c.SelectMode(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThroughput(t *testing.T) {
	c := MustNew(DefaultConfig())
	if c.Throughput(-100) != 0 {
		t.Error("throughput at terrible CSI should be 0")
	}
	if c.Throughput(100) != 1 {
		t.Errorf("throughput at excellent CSI = %v, want 1", c.Throughput(100))
	}
	if c.ModeThroughput(0) != 0 || c.ModeThroughput(7) != 0 {
		t.Error("ModeThroughput out of range should be 0")
	}
	if c.ModeThroughput(6) != 1 {
		t.Errorf("ModeThroughput(6) = %v", c.ModeThroughput(6))
	}
}

func TestAverageThroughputMonotone(t *testing.T) {
	c := MustNew(DefaultConfig())
	prev := -1.0
	for csi := -10.0; csi <= 40; csi += 1 {
		v := c.AverageThroughput(csi)
		if v < prev-1e-12 {
			t.Fatalf("average throughput decreased at %v dB: %v < %v", csi, v, prev)
		}
		if v < 0 || v > 1 {
			t.Fatalf("average throughput out of [0,1]: %v", v)
		}
		prev = v
	}
	// At very high CSI the average approaches the top-mode throughput.
	if got := c.AverageThroughput(60); got < 0.95 {
		t.Errorf("average throughput at 60 dB = %v, want near 1", got)
	}
	// At hopeless CSI it approaches 0.
	if got := c.AverageThroughput(-30); got > 0.02 {
		t.Errorf("average throughput at -30 dB = %v, want near 0", got)
	}
}

func TestModeDistributionSumsToOne(t *testing.T) {
	c := MustNew(DefaultConfig())
	for _, csi := range []float64{-10, 0, 5, 10, 20, 30} {
		d := c.ModeDistribution(csi)
		if len(d) != 7 {
			t.Fatalf("distribution length = %d", len(d))
		}
		sum := 0.0
		for _, p := range d {
			if p < -1e-12 {
				t.Fatalf("negative probability %v at csi %v", p, csi)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("mode distribution at %v dB sums to %v", csi, sum)
		}
	}
}

func TestModeDistributionConsistentWithAverage(t *testing.T) {
	c := MustNew(DefaultConfig())
	for _, csi := range []float64{0, 8, 15, 25} {
		d := c.ModeDistribution(csi)
		exp := 0.0
		for q := 1; q <= c.NumModes(); q++ {
			exp += d[q] * c.ModeThroughput(q)
		}
		if math.Abs(exp-c.AverageThroughput(csi)) > 1e-9 {
			t.Errorf("E[tp] from distribution %v != AverageThroughput %v at %v dB",
				exp, c.AverageThroughput(csi), csi)
		}
	}
}

func TestOutageProbability(t *testing.T) {
	c := MustNew(DefaultConfig())
	if got := c.OutageProbability(-40); got < 0.9 {
		t.Errorf("outage at -40 dB = %v, want near 1", got)
	}
	if got := c.OutageProbability(40); got > 0.01 {
		t.Errorf("outage at 40 dB = %v, want near 0", got)
	}
	prev := 2.0
	for csi := -10.0; csi <= 30; csi += 2 {
		v := c.OutageProbability(csi)
		if v > prev {
			t.Fatalf("outage probability should not increase with CSI")
		}
		prev = v
	}
}

func TestFixedRate(t *testing.T) {
	c := MustNew(DefaultConfig())
	fr, err := NewFixedRate(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Modes()[2]
	if fr.Throughput(m.MinCSIDB-1) != 0 {
		t.Error("fixed rate below threshold should be 0")
	}
	if fr.Throughput(m.MinCSIDB+1) != m.Throughput {
		t.Error("fixed rate above threshold should equal mode throughput")
	}
	// Fixed-rate average throughput is never above the adaptive coder's for
	// the same mean CSI... at high CSI the adaptive one uses higher modes.
	if fr.AverageThroughput(30) > c.AverageThroughput(30) {
		t.Error("adaptive coder should beat fixed mode 3 at high CSI")
	}
	if fr.AverageThroughput(-40) > 0.01 {
		t.Error("fixed-rate average at terrible CSI should be ~0")
	}
	if _, err := NewFixedRate(c, 0); err == nil {
		t.Error("mode 0 should be rejected")
	}
	if _, err := NewFixedRate(c, 7); err == nil {
		t.Error("mode 7 should be rejected")
	}
}

func TestAdaptiveBeatsFixedEverywhere(t *testing.T) {
	// The headline claim of adaptive coding: for every mean CSI the adaptive
	// coder's average throughput is at least that of any single fixed mode.
	c := MustNew(DefaultConfig())
	for q := 1; q <= c.NumModes(); q++ {
		fr, _ := NewFixedRate(c, q)
		for csi := -10.0; csi <= 35; csi += 2.5 {
			if fr.AverageThroughput(csi) > c.AverageThroughput(csi)+1e-9 {
				t.Errorf("fixed mode %d beats adaptive at %v dB", q, csi)
			}
		}
	}
}

func TestTabulateAccuracy(t *testing.T) {
	exact := MustNew(DefaultConfig())
	tab := MustNew(DefaultConfig())
	if tab.table != nil {
		t.Fatal("fresh coder should not be tabulated")
	}
	tab.Tabulate()
	tab.Tabulate() // idempotent
	if tab.table == nil {
		t.Fatal("Tabulate did not activate the table")
	}
	// Dense off-grid sweep across the table: interpolation error must stay
	// below the documented bound.
	worst := 0.0
	for csi := TableMinCSIDB; csi <= TableMaxCSIDB; csi += 0.0137 {
		e := math.Abs(tab.AverageThroughput(csi) - exact.AverageThroughput(csi))
		if e > worst {
			worst = e
		}
	}
	if worst > 5e-7 {
		t.Errorf("interpolation error %.3g exceeds 5e-7 bits/symbol", worst)
	}
	// On-grid samples are exact by construction.
	for i := 0; i < 10; i++ {
		csi := TableMinCSIDB + float64(i*97)*TableStepDB
		if tab.AverageThroughput(csi) != exact.AverageThroughput(csi) {
			t.Errorf("grid point %v dB should be bit-exact", csi)
		}
	}
}

func TestTabulateFallsBackOutsideGrid(t *testing.T) {
	exact := MustNew(DefaultConfig())
	tab := MustNew(DefaultConfig())
	tab.Tabulate()
	for _, csi := range []float64{TableMinCSIDB - 0.5, TableMaxCSIDB + 0.5, -120, 90} {
		if got, want := tab.AverageThroughput(csi), exact.AverageThroughput(csi); got != want {
			t.Errorf("out-of-grid %v dB: got %v, want exact %v", csi, got, want)
		}
	}
	// The table upper edge itself is served from the table and must equal
	// the exact sample there.
	if tab.AverageThroughput(TableMaxCSIDB) != exact.AverageThroughput(TableMaxCSIDB) {
		t.Error("table upper edge should be bit-exact")
	}
}
