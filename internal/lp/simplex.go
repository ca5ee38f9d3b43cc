// Package lp implements a small dense two-phase primal simplex solver for
// linear programs in the inequality form
//
//	maximise    c'x
//	subject to  A x <= b
//	            0 <= x
//
// which is exactly the shape of the LP relaxation of the paper's burst
// admission integer program (eq. 7 and 17 plus the burst-duration upper
// bounds expressed as extra rows). The solver is deterministic and uses
// Bland's rule to avoid cycling.
//
// Two entry points are provided: the package-level Solve for one-shot
// convenience, and the reusable Solver whose tableau, basis and objective
// rows are arenas reused across calls — the branch-and-bound search in
// package ilp solves one LP per node, and a warm Solver makes that loop
// allocation-free in the steady state.
package lp

import (
	"errors"
	"math"
)

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means an optimal bounded solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set is empty.
	Infeasible
	// Unbounded means the objective can grow without limit.
	Unbounded
)

// ErrBadShape is returned when the problem dimensions are inconsistent.
var ErrBadShape = errors.New("lp: inconsistent problem dimensions")

// Problem is a linear program in the form maximise c'x s.t. A x <= b, x >= 0.
type Problem struct {
	C []float64   // objective coefficients, length n
	A [][]float64 // constraint matrix, m rows of length n
	B []float64   // right-hand side, length m (may be negative)
}

// Result holds the outcome of solving a Problem.
type Result struct {
	Status    Status
	X         []float64 // primal solution (valid when Status == Optimal)
	Objective float64   // c'X (valid when Status == Optimal)
}

const eps = 1e-9

// Solver is a reusable two-phase simplex solver. Its tableau (one flat slab
// carved into rows with spare capacity for the phase-1 artificial columns),
// basis, objective row and solution vector are buffers that grow to the
// high-water problem size and are then reused, so steady-state Solve calls
// do not allocate. The zero value is ready to use.
//
// Result.X returned by Solve aliases the Solver's solution buffer and is
// only valid until the next Solve call; it must not be mutated. A Solver is
// not safe for concurrent use — give each goroutine its own.
type Solver struct {
	n, m, nTot int
	// rows holds the m tableau rows, each of length nTot+1 (last column is
	// the rhs) with capacity for up to m phase-1 artificial columns; the
	// backing storage is the slab.
	slab  []float64
	rows  [][]float64
	obj   []float64 // objective row (maximisation, reduced costs)
	basis []int     // basis[i] = variable index basic in row i
	origC []float64
	x     []float64
	art   []int // phase-1 scratch: rows that received an artificial variable
}

// Solve runs the two-phase simplex method on p, reusing the solver's
// buffers. See the Solver doc comment for the Result.X aliasing contract.
func (s *Solver) Solve(p Problem) (Result, error) {
	n := len(p.C)
	m := len(p.A)
	if len(p.B) != m {
		return Result{}, ErrBadShape
	}
	for _, row := range p.A {
		if len(row) != n {
			return Result{}, ErrBadShape
		}
	}
	if n == 0 {
		// Trivial: x is empty; feasible iff b >= 0.
		for _, b := range p.B {
			if b < -eps {
				return Result{Status: Infeasible}, nil
			}
		}
		return Result{Status: Optimal, X: []float64{}, Objective: 0}, nil
	}

	s.reset(p)
	// Phase 1 only needed if some b < 0 (slack basis infeasible).
	if s.needsPhase1() {
		if !s.phase1() {
			return Result{Status: Infeasible}, nil
		}
	}
	status := s.phase2()
	if status == Unbounded {
		return Result{Status: Unbounded}, nil
	}
	x := s.extract()
	obj := 0.0
	for i, c := range p.C {
		obj += c * x[i]
	}
	return Result{Status: Optimal, X: x, Objective: obj}, nil
}

// reset loads p into the solver's arena: structural variables 0..n-1, slack
// variables n..n+m-1 and (during phase 1) artificial variables beyond that.
func (s *Solver) reset(p Problem) {
	n, m := len(p.C), len(p.A)
	s.n, s.m, s.nTot = n, m, n+m
	// Row stride reserves one column per possible artificial variable (at
	// most one per row) so phase 1 can widen rows in place.
	stride := s.nTot + 1 + m
	if cap(s.slab) < m*stride {
		s.slab = make([]float64, m*stride)
	}
	slab := s.slab[:m*stride]
	if cap(s.rows) < m {
		s.rows = make([][]float64, m)
	}
	s.rows = s.rows[:m]
	if cap(s.basis) < m {
		s.basis = make([]int, m)
	}
	s.basis = s.basis[:m]
	if cap(s.obj) < stride {
		s.obj = make([]float64, stride)
	}
	if cap(s.x) < n {
		s.x = make([]float64, n)
	}
	s.x = s.x[:n]
	s.origC = append(s.origC[:0], p.C...)
	for i := 0; i < m; i++ {
		row := slab[i*stride : i*stride+s.nTot+1 : (i+1)*stride]
		copy(row, p.A[i])
		for j := n; j < s.nTot; j++ {
			row[j] = 0
		}
		row[n+i] = 1 // slack
		row[s.nTot] = p.B[i]
		s.rows[i] = row
		s.basis[i] = n + i
	}
}

func (s *Solver) needsPhase1() bool {
	for i := 0; i < s.m; i++ {
		if s.rows[i][s.nTot] < -eps {
			return true
		}
	}
	return false
}

// phase1 restores feasibility by adding one artificial variable per negative
// row and minimising their sum. Returns false if the LP is infeasible.
func (s *Solver) phase1() bool {
	// Add artificial variables for rows with negative rhs (after negating).
	artRows := s.art[:0]
	for i := 0; i < s.m; i++ {
		if s.rows[i][s.nTot] < -eps {
			// Negate row so rhs >= 0; slack coefficient flips sign.
			for j := range s.rows[i] {
				s.rows[i][j] = -s.rows[i][j]
			}
			artRows = append(artRows, i)
		}
	}
	s.art = artRows
	if len(artRows) == 0 {
		return true
	}
	oldTot := s.nTot
	s.nTot += len(artRows)
	for i := range s.rows {
		// Widen the row in place (capacity reserved in reset): zero the new
		// artificial columns and move the rhs to the last column.
		row := s.rows[i]
		rhs := row[oldTot]
		row = row[:s.nTot+1]
		for j := oldTot; j <= s.nTot; j++ {
			row[j] = 0
		}
		row[s.nTot] = rhs
		s.rows[i] = row
	}
	for k, ri := range artRows {
		s.rows[ri][oldTot+k] = 1
		s.basis[ri] = oldTot + k
	}
	// Phase-1 objective: maximise -(sum of artificials).
	s.obj = s.obj[:s.nTot+1]
	for j := range s.obj {
		s.obj[j] = 0
	}
	for k := range artRows {
		s.obj[oldTot+k] = -1
	}
	// Price out basic artificials.
	for _, ri := range artRows {
		for j := 0; j <= s.nTot; j++ {
			s.obj[j] += s.rows[ri][j]
		}
	}
	s.iterate()
	if s.obj[s.nTot] > eps {
		return false // artificials cannot be driven to zero
	}
	// Pivot any artificial still in the basis (at zero level) out if possible.
	for i := 0; i < s.m; i++ {
		if s.basis[i] >= oldTot {
			pivoted := false
			for j := 0; j < oldTot; j++ {
				if math.Abs(s.rows[i][j]) > eps {
					s.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; leave the artificial basic at value 0.
				continue
			}
		}
	}
	// Drop artificial columns.
	for i := range s.rows {
		rhs := s.rows[i][s.nTot]
		row := s.rows[i][:oldTot+1]
		row[oldTot] = rhs
		s.rows[i] = row
	}
	s.nTot = oldTot
	return true
}

// phase2 optimises the true objective from the current feasible basis. When
// phase 1 ran, the basis is a warm start: the feasible basis it found is
// re-priced rather than rebuilt.
func (s *Solver) phase2() Status {
	s.obj = s.obj[:s.nTot+1]
	for j := range s.obj {
		s.obj[j] = 0
	}
	for j := 0; j < s.n; j++ {
		s.obj[j] = s.origC[j]
	}
	// Price out basic variables with nonzero objective coefficients.
	for i, b := range s.basis {
		if b < s.nTot && s.obj[b] != 0 {
			coef := s.obj[b]
			for j := 0; j <= s.nTot; j++ {
				s.obj[j] -= coef * s.rows[i][j]
			}
		}
	}
	return s.iterate()
}

// iterate runs primal simplex pivots until optimality or unboundedness.
func (s *Solver) iterate() Status {
	maxIter := 200 * (s.m + s.nTot + 10)
	for iter := 0; iter < maxIter; iter++ {
		// Entering variable: Bland's rule (smallest index with positive
		// reduced cost) for guaranteed termination.
		col := -1
		for j := 0; j < s.nTot; j++ {
			if s.obj[j] > eps {
				col = j
				break
			}
		}
		if col < 0 {
			return Optimal
		}
		// Ratio test.
		row := -1
		best := math.Inf(1)
		for i := 0; i < s.m; i++ {
			a := s.rows[i][col]
			if a > eps {
				ratio := s.rows[i][s.nTot] / a
				if ratio < best-eps || (math.Abs(ratio-best) <= eps && (row < 0 || s.basis[i] < s.basis[row])) {
					best = ratio
					row = i
				}
			}
		}
		if row < 0 {
			return Unbounded
		}
		s.pivot(row, col)
	}
	return Optimal
}

// pivot makes variable col basic in row.
func (s *Solver) pivot(row, col int) {
	p := s.rows[row][col]
	inv := 1 / p
	for j := 0; j <= s.nTot; j++ {
		s.rows[row][j] *= inv
	}
	for i := 0; i < s.m; i++ {
		if i == row {
			continue
		}
		f := s.rows[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= s.nTot; j++ {
			s.rows[i][j] -= f * s.rows[row][j]
		}
	}
	if s.obj != nil {
		f := s.obj[col]
		if f != 0 {
			for j := 0; j <= s.nTot; j++ {
				s.obj[j] -= f * s.rows[row][j]
			}
		}
	}
	s.basis[row] = col
}

// extract reads the structural variable values out of the tableau.
func (s *Solver) extract() []float64 {
	x := s.x
	for j := range x {
		x[j] = 0
	}
	for i, b := range s.basis {
		if b < s.n {
			v := s.rows[i][s.nTot]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}
