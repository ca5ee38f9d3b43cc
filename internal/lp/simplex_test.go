package lp

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimple2D(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0.
	// Optimum at (4, 0) with value 12.
	res, err := new(Solver).Solve(Problem{
		C: []float64{3, 2},
		A: [][]float64{{1, 1}, {1, 3}},
		B: []float64{4, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if !approx(res.Objective, 12, 1e-6) {
		t.Errorf("objective = %v, want 12", res.Objective)
	}
	if !approx(res.X[0], 4, 1e-6) || !approx(res.X[1], 0, 1e-6) {
		t.Errorf("x = %v, want [4 0]", res.X)
	}
}

func TestClassicProblem(t *testing.T) {
	// max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6. Optimum (3, 1.5), value 21.
	res, err := new(Solver).Solve(Problem{
		C: []float64{5, 4},
		A: [][]float64{{6, 4}, {1, 2}},
		B: []float64{24, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Objective, 21, 1e-6) {
		t.Errorf("objective = %v, want 21", res.Objective)
	}
	if !approx(res.X[0], 3, 1e-6) || !approx(res.X[1], 1.5, 1e-6) {
		t.Errorf("x = %v, want [3 1.5]", res.X)
	}
}

func TestUnbounded(t *testing.T) {
	// max x with only x - y <= 1: x can grow with y.
	res, err := new(Solver).Solve(Problem{
		C: []float64{1, 0},
		A: [][]float64{{1, -1}},
		B: []float64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unbounded {
		t.Errorf("status = %v, want Unbounded", res.Status)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= -1 with x >= 0 is infeasible.
	res, err := new(Solver).Solve(Problem{
		C: []float64{1},
		A: [][]float64{{1}, {-1}},
		B: []float64{-2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Errorf("status = %v, want Infeasible", res.Status)
	}
}

func TestNegativeRHSFeasible(t *testing.T) {
	// Constraint -x <= -2 means x >= 2; with x <= 5, max x = 5.
	res, err := new(Solver).Solve(Problem{
		C: []float64{1},
		A: [][]float64{{-1}, {1}},
		B: []float64{-2, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if !approx(res.X[0], 5, 1e-6) {
		t.Errorf("x = %v, want 5", res.X[0])
	}
}

func TestPhase1RequiredOptimum(t *testing.T) {
	// min-cost-like: maximise -x-y with x + y >= 3 (i.e. -x -y <= -3), x,y <= 4.
	res, err := new(Solver).Solve(Problem{
		C: []float64{-1, -1},
		A: [][]float64{{-1, -1}, {1, 0}, {0, 1}},
		B: []float64{-3, 4, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if !approx(res.Objective, -3, 1e-6) {
		t.Errorf("objective = %v, want -3", res.Objective)
	}
}

func TestZeroVariables(t *testing.T) {
	res, err := new(Solver).Solve(Problem{C: nil, A: [][]float64{}, B: []float64{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || res.Objective != 0 {
		t.Errorf("empty problem: %+v", res)
	}
}

func TestBadShape(t *testing.T) {
	_, err := new(Solver).Solve(Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}})
	if err != ErrBadShape {
		t.Errorf("expected ErrBadShape, got %v", err)
	}
	_, err = new(Solver).Solve(Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}})
	if err != ErrBadShape {
		t.Errorf("expected ErrBadShape, got %v", err)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Degenerate vertex should not cycle thanks to Bland's rule.
	res, err := new(Solver).Solve(Problem{
		C: []float64{10, -57, -9, -24},
		A: [][]float64{
			{0.5, -5.5, -2.5, 9},
			{0.5, -1.5, -0.5, 1},
			{1, 0, 0, 0},
		},
		B: []float64{0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if !approx(res.Objective, 1, 1e-6) {
		t.Errorf("objective = %v, want 1", res.Objective)
	}
}

func TestSolutionFeasibilityProperty(t *testing.T) {
	// Random box-constrained problems: optimal solutions must be feasible and
	// the objective must meet or exceed the all-zeros solution (which is
	// always feasible when b >= 0).
	f := func(seed int64) bool {
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		n, m := 4, 5
		p := Problem{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m)}
		for j := 0; j < n; j++ {
			p.C[j] = next()*4 - 1
		}
		for i := 0; i < m; i++ {
			p.A[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				p.A[i][j] = next() // nonnegative => bounded with b >= 0 and box rows
			}
			p.B[i] = next() * 10
		}
		res, err := new(Solver).Solve(p)
		if err != nil || res.Status != Optimal {
			return false
		}
		if res.Objective < -1e-7 {
			return false
		}
		for i := 0; i < m; i++ {
			lhs := 0.0
			for j := 0; j < n; j++ {
				lhs += p.A[i][j] * res.X[j]
			}
			if lhs > p.B[i]+1e-6 {
				return false
			}
		}
		for j := 0; j < n; j++ {
			if res.X[j] < -1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
