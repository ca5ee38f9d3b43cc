// Package ilp solves the small bounded-integer programs produced by the burst
// admission scheduling sub-layer:
//
//	maximise    c'm  (+ constant)
//	subject to  A m <= b
//	            0 <= m_j <= ub_j,  m_j integer
//
// Two solvers are provided: the reusable Solver (LP-relaxation branch and
// bound with pooled nodes, a shared relaxation and a greedy-seeded
// incumbent — the production path, allocation-free in the steady state) and
// an exhaustive enumerator (Exhaustive) for tiny instances and oracle duty.
// The package tests keep a third, the one-shot BranchAndBound, as an
// independent differential-test reference for Solver.
package ilp

import (
	"errors"
	"math"
)

// ErrBadShape is returned when problem dimensions are inconsistent.
var ErrBadShape = errors.New("ilp: inconsistent problem dimensions")

// Problem is a bounded integer program. Upper bounds must be non-negative.
type Problem struct {
	C     []float64   // objective coefficients (maximise), length n
	A     [][]float64 // constraint rows, each length n
	B     []float64   // right-hand sides
	Upper []int       // per-variable integer upper bound, length n
}

// Result is the outcome of an integer solve.
type Result struct {
	Feasible  bool
	X         []int
	Objective float64
	Nodes     int // number of branch-and-bound nodes explored (0 for Exhaustive)
	// Capped is true when the search hit its node budget (Solver.MaxNodes,
	// or the maxNodes safety valve) and returned the incumbent instead of a
	// proven optimum. Deterministic: node counts depend only on the problem,
	// never on wall-clock time or scheduling.
	Capped bool
}

func (p Problem) validate() error {
	n := len(p.C)
	if len(p.Upper) != n {
		return ErrBadShape
	}
	if len(p.A) != len(p.B) {
		return ErrBadShape
	}
	for _, row := range p.A {
		if len(row) != n {
			return ErrBadShape
		}
	}
	for _, u := range p.Upper {
		if u < 0 {
			return ErrBadShape
		}
	}
	return nil
}

// objective evaluates c'x.
func (p Problem) objective(x []int) float64 {
	s := 0.0
	for i, c := range p.C {
		s += c * float64(x[i])
	}
	return s
}

// feasible reports whether x satisfies A x <= b and the bounds.
func (p Problem) feasible(x []int) bool {
	for i, xi := range x {
		if xi < 0 || xi > p.Upper[i] {
			return false
		}
	}
	for r, row := range p.A {
		lhs := 0.0
		for j, a := range row {
			lhs += a * float64(x[j])
		}
		if lhs > p.B[r]+1e-7 {
			return false
		}
	}
	return true
}

// Exhaustive enumerates every lattice point in the box [0,Upper] and returns
// the best feasible one. Complexity is Π(Upper_j+1); intended for n*M small
// (test oracle and tiny frames).
func Exhaustive(p Problem) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	n := len(p.C)
	x := make([]int, n)
	best := Result{Feasible: false, Objective: math.Inf(-1)}
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if p.feasible(x) {
				obj := p.objective(x)
				if !best.Feasible || obj > best.Objective {
					best.Feasible = true
					best.Objective = obj
					best.X = append([]int(nil), x...)
				}
			}
			return
		}
		for v := 0; v <= p.Upper[i]; v++ {
			x[i] = v
			rec(i + 1)
		}
		x[i] = 0
	}
	rec(0)
	if !best.Feasible {
		best.Objective = 0
	}
	return best, nil
}

// maxNodes is the branch-and-bound safety valve: searches abandon after this
// many nodes and return the incumbent.
const maxNodes = 200000
