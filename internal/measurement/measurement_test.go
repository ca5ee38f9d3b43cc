package measurement

import (
	"math"
	"testing"
	"testing/quick"

	"jabasd/internal/load"
)

func TestForwardRegionSingleCell(t *testing.T) {
	state := ForwardState{
		CurrentLoad: []float64{8},
		MaxLoad:     20,
		GammaS:      1.25,
	}
	reqs := []ForwardRequest{
		{UserID: 1, FCHPower: load.FromMap(map[int]float64{0: 0.5}), Alpha: 1},
		{UserID: 2, FCHPower: load.FromMap(map[int]float64{0: 1.0}), Alpha: 1.2},
	}
	region, err := ForwardRegion(state, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(region.Coeff) != 1 {
		t.Fatalf("constraints = %d, want 1", len(region.Coeff))
	}
	// a_{jk} = γs * P_jk * α_j.
	wantRow := []float64{1.25 * 0.5 * 1, 1.25 * 1.0 * 1.2}
	for j, w := range wantRow {
		if math.Abs(region.Coeff[0][j]-w) > 1e-12 {
			t.Errorf("coeff[%d] = %v, want %v", j, region.Coeff[0][j], w)
		}
	}
	if math.Abs(region.Bound[0]-12) > 1e-12 {
		t.Errorf("bound = %v, want 12", region.Bound[0])
	}
	if region.Cells[0] != 0 {
		t.Errorf("cell index = %d", region.Cells[0])
	}
}

func TestForwardRegionSoftHandoffTwoCells(t *testing.T) {
	// A user in soft hand-off consumes power in both reduced-active-set cells.
	state := ForwardState{CurrentLoad: []float64{5, 15}, MaxLoad: 20, GammaS: 1}
	reqs := []ForwardRequest{
		{UserID: 1, FCHPower: load.FromMap(map[int]float64{0: 1, 1: 2}), Alpha: 1},
	}
	region, err := ForwardRegion(state, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(region.Coeff) != 2 {
		t.Fatalf("constraints = %d, want 2", len(region.Coeff))
	}
	// Cell 1 has only 5 units of headroom: m <= 5/2.
	if !region.Feasible([]int{2}) {
		t.Error("m=2 should be feasible")
	}
	if region.Feasible([]int{3}) {
		t.Error("m=3 should violate cell 1's power budget")
	}
	head := region.Headroom([]int{2})
	if math.Abs(head[0]-13) > 1e-12 || math.Abs(head[1]-1) > 1e-12 {
		t.Errorf("headroom = %v", head)
	}
}

func TestForwardRegionOverloadedCell(t *testing.T) {
	state := ForwardState{CurrentLoad: []float64{25}, MaxLoad: 20, GammaS: 1}
	reqs := []ForwardRequest{{UserID: 1, FCHPower: load.FromMap(map[int]float64{0: 1}), Alpha: 1}}
	region, err := ForwardRegion(state, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if region.Bound[0] >= 0 {
		t.Error("overloaded cell should have negative bound")
	}
	if region.Feasible([]int{1}) {
		t.Error("any admission should be infeasible in an overloaded cell")
	}
	if !region.Feasible([]int{0}) {
		// The zero vector is "feasible" w.r.t. the matrix but the row bound is
		// negative, meaning even zero violates: document the behaviour —
		// Feasible(0) is false for negative bounds.
		t.Log("zero vector infeasible because the cell is already above P_max")
	}
}

func TestForwardRegionValidation(t *testing.T) {
	good := ForwardState{CurrentLoad: []float64{1}, MaxLoad: 10, GammaS: 1}
	cases := []struct {
		state ForwardState
		reqs  []ForwardRequest
	}{
		{ForwardState{CurrentLoad: []float64{1}, MaxLoad: 0, GammaS: 1}, nil},
		{ForwardState{CurrentLoad: []float64{1}, MaxLoad: 10, GammaS: 0}, nil},
		{good, []ForwardRequest{{FCHPower: load.FromMap(map[int]float64{0: 1}), Alpha: 0}}},
		{good, []ForwardRequest{{FCHPower: load.FromMap(map[int]float64{5: 1}), Alpha: 1}}},
		{good, []ForwardRequest{{FCHPower: load.FromMap(map[int]float64{-1: 1}), Alpha: 1}}},
		{good, []ForwardRequest{{FCHPower: load.FromMap(map[int]float64{0: -2}), Alpha: 1}}},
	}
	for i, c := range cases {
		if _, err := ForwardRegion(c.state, c.reqs); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestForwardRegionEmptyRequests(t *testing.T) {
	state := ForwardState{CurrentLoad: []float64{1, 2}, MaxLoad: 10, GammaS: 1}
	region, err := ForwardRegion(state, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(region.Coeff) != 0 {
		t.Error("no requests should produce no constraints")
	}
	if !region.Feasible(nil) {
		t.Error("empty region should be trivially feasible")
	}
}

func TestSCRMCapsAtEight(t *testing.T) {
	pilots := map[int]float64{}
	for i := 0; i < 15; i++ {
		pilots[i] = float64(i + 1) // cell 14 strongest
	}
	s := NewSCRM(load.FromMap(pilots))
	if s.Pilots.Len() != SCRMMaxPilots {
		t.Fatalf("SCRM carries %d pilots, want %d", s.Pilots.Len(), SCRMMaxPilots)
	}
	// It must keep the strongest eight: cells 7..14.
	for c := 7; c <= 14; c++ {
		if _, ok := s.Pilots.Get(c); !ok {
			t.Errorf("strong pilot for cell %d dropped", c)
		}
	}
	for c := 0; c <= 6; c++ {
		if _, ok := s.Pilots.Get(c); ok {
			t.Errorf("weak pilot for cell %d kept", c)
		}
	}
	// Small reports are kept as-is (copied).
	small := load.FromMap(map[int]float64{1: 0.1, 2: 0.2})
	s2 := NewSCRM(small)
	if s2.Pilots.Len() != 2 {
		t.Error("small SCRM should keep all pilots")
	}
	small.Set(1, 99)
	if v, _ := s2.Pilots.Get(1); v == 99 {
		t.Error("SCRM should copy the pilot report")
	}
}

func defaultReverseState() ReverseState {
	return ReverseState{
		TotalReceived: []float64{2.0, 1.5, 1.0},
		MaxReceived:   4.0,
		GammaS:        1.25,
		ShadowMargin:  1.5,
	}
}

func TestReverseRegionSoftHandoffCoefficients(t *testing.T) {
	state := defaultReverseState()
	req := ReverseRequest{
		UserID:       1,
		HostCell:     0,
		ReversePilot: load.FromMap(map[int]float64{0: 0.02, 1: 0.01}),
		SCRM:         NewSCRM(load.FromMap(map[int]float64{0: 0.05, 1: 0.03})),
		Zeta:         4,
		Alpha:        1,
	}
	region, err := ReverseRegion(state, []ReverseRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	// Rows for cells 0 and 1 (both soft hand-off); no other cells involved.
	if len(region.Coeff) != 2 {
		t.Fatalf("constraints = %d, want 2", len(region.Coeff))
	}
	// Equation (12): b_{j,k} = γs * α * ζ * t^{RL}_{j,k} * L_k.
	want0 := 1.25 * 1 * 4 * 0.02 * 2.0
	want1 := 1.25 * 1 * 4 * 0.01 * 1.5
	if math.Abs(region.Coeff[0][0]-want0) > 1e-12 {
		t.Errorf("cell 0 coeff = %v, want %v", region.Coeff[0][0], want0)
	}
	if math.Abs(region.Coeff[1][0]-want1) > 1e-12 {
		t.Errorf("cell 1 coeff = %v, want %v", region.Coeff[1][0], want1)
	}
	if math.Abs(region.Bound[0]-2.0) > 1e-12 || math.Abs(region.Bound[1]-2.5) > 1e-12 {
		t.Errorf("bounds = %v", region.Bound)
	}
}

func TestReverseRegionNeighbourProjection(t *testing.T) {
	state := defaultReverseState()
	req := ReverseRequest{
		UserID:       1,
		HostCell:     0,
		ReversePilot: load.FromMap(map[int]float64{0: 0.02}),
		// Forward pilots: host 0.05, neighbour cell 2 at 0.01.
		SCRM:  NewSCRM(load.FromMap(map[int]float64{0: 0.05, 2: 0.01})),
		Zeta:  4,
		Alpha: 1,
	}
	region, err := ReverseRegion(state, []ReverseRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	if len(region.Coeff) != 2 {
		t.Fatalf("constraints = %d (cells %v), want 2", len(region.Coeff), region.Cells)
	}
	// Host-cell FCH received power: ζ t L = 4*0.02*2 = 0.16.
	// Neighbour projection (eq. 15): γs*α*X_host*(fp_k'/fp_host)*κ
	//   = 1.25*1*0.16*(0.01/0.05)*1.5 = 0.06.
	var neighbourRow []float64
	for i, c := range region.Cells {
		if c == 2 {
			neighbourRow = region.Coeff[i]
		}
	}
	if neighbourRow == nil {
		t.Fatal("no constraint generated for neighbour cell 2")
	}
	if math.Abs(neighbourRow[0]-0.06) > 1e-12 {
		t.Errorf("neighbour coeff = %v, want 0.06", neighbourRow[0])
	}
}

func TestReverseRegionExplicitNeighbourList(t *testing.T) {
	state := defaultReverseState()
	state.NeighbourCells = map[int][]int{0: {1}} // only protect cell 1
	req := ReverseRequest{
		UserID:       1,
		HostCell:     0,
		ReversePilot: load.FromMap(map[int]float64{0: 0.02}),
		SCRM:         NewSCRM(load.FromMap(map[int]float64{0: 0.05, 1: 0.02, 2: 0.01})),
		Zeta:         4,
		Alpha:        1,
	}
	region, err := ReverseRegion(state, []ReverseRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range region.Cells {
		if c == 2 {
			t.Error("cell 2 should not be protected when an explicit neighbour list excludes it")
		}
	}
}

func TestReverseRegionShadowMarginIncreasesProtection(t *testing.T) {
	mk := func(margin float64) float64 {
		state := defaultReverseState()
		state.ShadowMargin = margin
		req := ReverseRequest{
			UserID:       1,
			HostCell:     0,
			ReversePilot: load.FromMap(map[int]float64{0: 0.02}),
			SCRM:         NewSCRM(load.FromMap(map[int]float64{0: 0.05, 2: 0.01})),
			Zeta:         4,
			Alpha:        1,
		}
		region, err := ReverseRegion(state, []ReverseRequest{req})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range region.Cells {
			if c == 2 {
				return region.Coeff[i][0]
			}
		}
		return 0
	}
	small := mk(1)
	big := mk(3)
	if big <= small {
		t.Errorf("larger shadow margin should project more interference: %v vs %v", big, small)
	}
	// Margin below 1 is clamped to 1.
	if mk(0.2) != small {
		t.Error("margins below 1 should clamp to 1")
	}
}

func TestReverseRegionValidation(t *testing.T) {
	good := defaultReverseState()
	base := ReverseRequest{
		HostCell:     0,
		ReversePilot: load.FromMap(map[int]float64{0: 0.02}),
		SCRM:         NewSCRM(load.FromMap(map[int]float64{0: 0.05})),
		Zeta:         4,
		Alpha:        1,
	}
	badZeta := base
	badZeta.Zeta = 0
	badAlpha := base
	badAlpha.Alpha = 0
	badHost := base
	badHost.HostCell = 9
	noHostPilot := base
	noHostPilot.ReversePilot = load.FromMap(map[int]float64{1: 0.02})
	badSHOCell := base
	badSHOCell.ReversePilot = load.FromMap(map[int]float64{0: 0.02, 9: 0.01})
	badNeighbour := base
	badNeighbour.SCRM = NewSCRM(load.FromMap(map[int]float64{0: 0.05, 9: 0.01}))

	cases := []struct {
		name  string
		state ReverseState
		req   ReverseRequest
	}{
		{"bad max", ReverseState{TotalReceived: []float64{1}, MaxReceived: 0, GammaS: 1}, base},
		{"bad gamma", ReverseState{TotalReceived: []float64{1}, MaxReceived: 2, GammaS: 0}, base},
		{"bad zeta", good, badZeta},
		{"bad alpha", good, badAlpha},
		{"bad host", good, badHost},
		{"no host pilot", good, noHostPilot},
		{"bad SHO cell", good, badSHOCell},
		{"bad neighbour cell", good, badNeighbour},
	}
	for _, c := range cases {
		if _, err := ReverseRegion(c.state, []ReverseRequest{c.req}); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestReverseRegionNoSCRMHostPilotSkipsProjection(t *testing.T) {
	state := defaultReverseState()
	req := ReverseRequest{
		HostCell:     0,
		ReversePilot: load.FromMap(map[int]float64{0: 0.02}),
		SCRM:         NewSCRM(load.FromMap(map[int]float64{2: 0.01})), // host pilot missing
		Zeta:         4,
		Alpha:        1,
	}
	region, err := ReverseRegion(state, []ReverseRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	// Only the host soft hand-off row should exist; projection impossible.
	if len(region.Coeff) != 1 || region.Cells[0] != 0 {
		t.Errorf("expected only the host row, got cells %v", region.Cells)
	}
}

func TestRegionFeasibleMonotoneProperty(t *testing.T) {
	// Feasibility is monotone: reducing any assignment keeps it feasible
	// (all coefficients are non-negative by construction).
	state := defaultReverseState()
	reqs := []ReverseRequest{
		{
			HostCell:     0,
			ReversePilot: load.FromMap(map[int]float64{0: 0.01, 1: 0.008}),
			SCRM:         NewSCRM(load.FromMap(map[int]float64{0: 0.05, 1: 0.04, 2: 0.01})),
			Zeta:         4,
			Alpha:        1,
		},
		{
			HostCell:     1,
			ReversePilot: load.FromMap(map[int]float64{1: 0.012}),
			SCRM:         NewSCRM(load.FromMap(map[int]float64{1: 0.06, 2: 0.02})),
			Zeta:         4,
			Alpha:        1.2,
		},
	}
	region, err := ReverseRegion(state, reqs)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		m := []int{int(a % 8), int(b % 8)}
		if !region.Feasible(m) {
			return true
		}
		// Any componentwise-smaller vector stays feasible.
		for j := range m {
			if m[j] > 0 {
				smaller := append([]int(nil), m...)
				smaller[j]--
				if !region.Feasible(smaller) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
