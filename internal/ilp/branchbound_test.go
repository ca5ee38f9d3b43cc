package ilp

import (
	"math"
	"testing"

	"jabasd/internal/lp"
	"jabasd/internal/rng"
)

// BranchAndBound solves the problem with LP-relaxation based branch and
// bound. Variable upper bounds are encoded as extra LP rows. The search
// branches on the most fractional variable and explores the "floor" branch
// first (depth-first), using the LP bound to prune.
//
// BranchAndBound allocates its relaxation matrices and a fresh lp.Solver
// per node; it is the independent reference implementation and
// differential-test oracle for the reusable Solver, which the schedulers
// use on the hot path.
func BranchAndBound(p Problem) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	n := len(p.C)
	if n == 0 {
		return Result{Feasible: true, X: []int{}, Objective: 0}, nil
	}

	// The all-zero vector is feasible iff b >= 0; use it as the incumbent
	// when possible (m_j = 0 means "reject all bursts", always admissible in
	// the paper's formulation).
	best := Result{Feasible: false, Objective: math.Inf(-1), Nodes: 0}
	zero := make([]int, n)
	if p.feasible(zero) {
		best = Result{Feasible: true, X: zero, Objective: p.objective(zero)}
	}

	type node struct {
		lower, upper []int
	}
	initLower := make([]int, n)
	initUpper := append([]int(nil), p.Upper...)
	stack := []node{{lower: initLower, upper: initUpper}}
	nodes := 0

	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++
		if nodes > maxNodes {
			break // safety valve; incumbent is returned
		}

		relax := buildRelaxation(p, nd.lower, nd.upper)
		res, err := new(lp.Solver).Solve(relax)
		if err != nil {
			return Result{}, err
		}
		if res.Status == lp.Infeasible {
			continue
		}
		if res.Status == lp.Unbounded {
			// Bounded box => cannot happen, but guard anyway.
			continue
		}
		// Shift variables back: LP variables are y_j = x_j - lower_j.
		xFrac := make([]float64, n)
		obj := 0.0
		for j := 0; j < n; j++ {
			xFrac[j] = res.X[j] + float64(nd.lower[j])
			obj += p.C[j] * xFrac[j]
		}
		if best.Feasible && obj <= best.Objective+1e-9 {
			continue // prune by bound
		}
		// Find most fractional variable.
		branch := -1
		bestFrac := 1e-6
		for j := 0; j < n; j++ {
			f := math.Abs(xFrac[j] - math.Round(xFrac[j]))
			if f > bestFrac {
				bestFrac = f
				branch = j
			}
		}
		if branch < 0 {
			// Integral LP optimum.
			xi := make([]int, n)
			for j := 0; j < n; j++ {
				xi[j] = int(math.Round(xFrac[j]))
			}
			if p.feasible(xi) {
				o := p.objective(xi)
				if !best.Feasible || o > best.Objective {
					best = Result{Feasible: true, X: xi, Objective: o}
				}
			}
			continue
		}
		floorV := int(math.Floor(xFrac[branch]))
		// Up branch: x_branch >= floor+1.
		if floorV+1 <= nd.upper[branch] {
			lo := append([]int(nil), nd.lower...)
			up := append([]int(nil), nd.upper...)
			lo[branch] = floorV + 1
			stack = append(stack, node{lower: lo, upper: up})
		}
		// Down branch: x_branch <= floor (pushed last => explored first).
		if floorV >= nd.lower[branch] {
			lo := append([]int(nil), nd.lower...)
			up := append([]int(nil), nd.upper...)
			up[branch] = floorV
			stack = append(stack, node{lower: lo, upper: up})
		}
	}
	best.Nodes = nodes
	if !best.Feasible {
		best.Objective = 0
	}
	return best, nil
}

// buildRelaxation constructs the LP relaxation over shifted variables
// y_j = x_j - lower_j with 0 <= y_j <= upper_j - lower_j.
func buildRelaxation(p Problem, lower, upper []int) lp.Problem {
	n := len(p.C)
	m := len(p.A)
	rows := make([][]float64, 0, m+n)
	rhs := make([]float64, 0, m+n)
	for i := 0; i < m; i++ {
		row := append([]float64(nil), p.A[i]...)
		b := p.B[i]
		for j := 0; j < n; j++ {
			b -= p.A[i][j] * float64(lower[j])
		}
		rows = append(rows, row)
		rhs = append(rhs, b)
	}
	for j := 0; j < n; j++ {
		row := make([]float64, n)
		row[j] = 1
		rows = append(rows, row)
		rhs = append(rhs, float64(upper[j]-lower[j]))
	}
	return lp.Problem{C: append([]float64(nil), p.C...), A: rows, B: rhs}
}

// benchILP builds the random integer program shared by the ILP benchmarks.
func benchILP() Problem {
	src := rng.New(5)
	n, m := 8, 4
	p := Problem{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m), Upper: make([]int, n)}
	for j := 0; j < n; j++ {
		p.C[j] = src.Uniform(0, 2)
		p.Upper[j] = 8
	}
	for i := 0; i < m; i++ {
		p.A[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			p.A[i][j] = src.Uniform(0, 1)
		}
		p.B[i] = src.Uniform(4, 12)
	}
	return p
}

func BenchmarkBranchAndBound(b *testing.B) {
	p := benchILP()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BranchAndBound(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkILPSolverWarm measures the production branch-and-bound path: a
// warm Solver (pooled nodes, shared relaxation, greedy-seeded incumbent)
// on the same instance as BenchmarkBranchAndBound.
func BenchmarkILPSolverWarm(b *testing.B) {
	p := benchILP()
	var s Solver
	if _, err := s.Solve(p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
