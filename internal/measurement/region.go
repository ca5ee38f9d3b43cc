package measurement

import "sort"

// Region is a linear admissible region  Coeff·m <= Bound  over the integer
// assignment vector m (one entry per request, in the order the requests were
// supplied). Rows with no involvement from any request are omitted.
type Region struct {
	Coeff [][]float64 // one row per binding resource (cell)
	Bound []float64
	Cells []int // which cell produced each row (useful for reporting)
}

// Feasible reports whether the integer assignment m satisfies the region.
func (r Region) Feasible(m []int) bool {
	for i, row := range r.Coeff {
		lhs := 0.0
		for j, a := range row {
			if j < len(m) {
				lhs += a * float64(m[j])
			}
		}
		if lhs > r.Bound[i]+1e-9 {
			return false
		}
	}
	return true
}

// Headroom returns, for each row, the remaining budget Bound - Coeff·m.
func (r Region) Headroom(m []int) []float64 {
	return r.HeadroomInto(nil, m)
}

// HeadroomInto is Headroom writing into dst, which is grown as needed and
// returned; the schedulers' steady-state loops use it to stay allocation
// free.
func (r Region) HeadroomInto(dst []float64, m []int) []float64 {
	if cap(dst) < len(r.Coeff) {
		dst = make([]float64, len(r.Coeff))
	}
	dst = dst[:len(r.Coeff)]
	for i, row := range r.Coeff {
		lhs := 0.0
		for j, a := range row {
			if j < len(m) {
				lhs += a * float64(m[j])
			}
		}
		dst[i] = r.Bound[i] - lhs
	}
	return dst
}

// RegionBuilder assembles admissible regions without allocating on the
// steady-state path: the per-cell row index, the constraint rows and the
// bounds all live in buffers that are reused from one frame to the next.
// The Region returned by Forward/Reverse shares the builder's storage and is
// valid until the next build on the same builder — exactly the lifetime the
// engine's admission loop needs (the region is consumed synchronously by the
// scheduler). Callers that retain regions should use the package-level
// ForwardRegion/ReverseRegion helpers instead, which build on a fresh
// builder every call.
type RegionBuilder struct {
	rowOf  []int // cell -> row index + 1 for the current build; 0 = absent
	cells  []int
	bounds []float64
	rows   [][]float64
	flat   []float64 // backing storage the rows are carved from
}

// begin resets the builder for a system of nCells cells, clearing the marks
// left by the previous build.
func (b *RegionBuilder) begin(nCells int) {
	for _, k := range b.cells {
		b.rowOf[k] = 0
	}
	if len(b.rowOf) < nCells {
		b.rowOf = append(b.rowOf, make([]int, nCells-len(b.rowOf))...)
	}
	b.cells = b.cells[:0]
	b.bounds = b.bounds[:0]
	b.rows = b.rows[:0]
}

// touch records that cell needs a constraint row. Cells must already be
// validated to lie in [0, nCells).
func (b *RegionBuilder) touch(cell int) {
	if b.rowOf[cell] == 0 {
		b.rowOf[cell] = 1 // placeholder; real row indices assigned in finishCells
		b.cells = append(b.cells, cell)
	}
}

// finishCells orders the touched cells, assigns their row indices and carves
// one zeroed row of width n per cell out of the flat buffer.
func (b *RegionBuilder) finishCells(n int) {
	sort.Ints(b.cells)
	need := len(b.cells) * n
	if cap(b.flat) < need {
		b.flat = make([]float64, need)
	} else {
		b.flat = b.flat[:need]
		for i := range b.flat {
			b.flat[i] = 0
		}
	}
	if cap(b.bounds) < len(b.cells) {
		b.bounds = make([]float64, len(b.cells))
	} else {
		b.bounds = b.bounds[:len(b.cells)]
	}
	for i, k := range b.cells {
		b.rowOf[k] = i + 1
		b.rows = append(b.rows, b.flat[i*n:(i+1)*n])
	}
}

// row returns the constraint row for a touched cell.
func (b *RegionBuilder) row(cell int) []float64 { return b.rows[b.rowOf[cell]-1] }

// region packages the built rows. The slices alias the builder's buffers.
func (b *RegionBuilder) region() Region {
	return Region{Coeff: b.rows, Bound: b.bounds, Cells: b.cells}
}
