package lp

import (
	"testing"

	"jabasd/internal/rng"
)

// benchLP builds the random LP instance shared by the simplex benchmarks.
func benchLP() Problem {
	src := rng.New(3)
	n, m := 12, 10
	p := Problem{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m)}
	for j := 0; j < n; j++ {
		p.C[j] = src.Uniform(0, 2)
	}
	for i := 0; i < m; i++ {
		p.A[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			p.A[i][j] = src.Uniform(0, 1)
		}
		p.B[i] = src.Uniform(3, 10)
	}
	return p
}

func BenchmarkSimplexSolve(b *testing.B) {
	p := benchLP()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := new(Solver).Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplexSolverWarm measures the reusable solver's steady state:
// the same instance solved on warm arenas, the shape of the inner loop of
// branch and bound. The delta against BenchmarkSimplexSolve is the cost of
// the per-call tableau allocation the Solver removes.
func BenchmarkSimplexSolverWarm(b *testing.B) {
	p := benchLP()
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
