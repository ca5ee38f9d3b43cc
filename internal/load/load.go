// Package load provides the dense, slice-backed cell-load containers used by
// the simulation hot path: a Vec holding a handful of (cell, value) pairs —
// a user's per-cell FCH power, a burst's per-cell resource footprint — and a
// Ledger accumulating the per-cell totals of a frame. Both are allocated
// once and reset in place, so the per-frame admission loop runs without the
// map allocations the engine originally paid for every user and request.
package load

import "sort"

// Vec is a small cell-indexed vector: an ordered list of (cell, value)
// pairs with unique cells. It replaces the map[int]float64 fields of the
// engine and the measurement sub-layer. A Vec is reset and refilled in
// place, so a long-lived Vec reaches a steady state where Set never
// allocates. Copying a Vec by value shares its backing storage; use Clone
// for an independent snapshot.
type Vec struct {
	cells []int
	vals  []float64
}

// MakeVec returns an empty Vec with room for capacity entries.
func MakeVec(capacity int) Vec {
	return Vec{cells: make([]int, 0, capacity), vals: make([]float64, 0, capacity)}
}

// FromMap builds a Vec from a cell -> value map, ordered by ascending cell
// index so the result is deterministic. Intended for tests and examples; the
// hot path fills Vecs with Reset + Set.
func FromMap(m map[int]float64) Vec {
	cells := make([]int, 0, len(m))
	for k := range m {
		cells = append(cells, k)
	}
	sort.Ints(cells)
	v := MakeVec(len(m))
	for _, k := range cells {
		v.Set(k, m[k])
	}
	return v
}

// Len returns the number of entries.
func (v Vec) Len() int { return len(v.cells) }

// At returns the i-th (cell, value) pair in insertion order.
func (v Vec) At(i int) (cell int, val float64) { return v.cells[i], v.vals[i] }

// Get returns the value stored for cell, if any.
func (v Vec) Get(cell int) (float64, bool) {
	for i, c := range v.cells {
		if c == cell {
			return v.vals[i], true
		}
	}
	return 0, false
}

// Reset empties the Vec, keeping its capacity.
func (v *Vec) Reset() {
	v.cells = v.cells[:0]
	v.vals = v.vals[:0]
}

// Set stores val for cell, replacing any existing entry.
func (v *Vec) Set(cell int, val float64) {
	for i, c := range v.cells {
		if c == cell {
			v.vals[i] = val
			return
		}
	}
	v.cells = append(v.cells, cell)
	v.vals = append(v.vals, val)
}

// Clone returns an independent copy.
func (v Vec) Clone() Vec {
	return Vec{
		cells: append([]int(nil), v.cells...),
		vals:  append([]float64(nil), v.vals...),
	}
}

// CloneScaled returns an independent copy with every value multiplied by s.
// The engine uses it to freeze a burst's per-cell footprint at grant time.
func (v Vec) CloneScaled(s float64) Vec {
	out := Vec{
		cells: append([]int(nil), v.cells...),
		vals:  make([]float64, len(v.vals)),
	}
	for i, x := range v.vals {
		out.vals[i] = x * s
	}
	return out
}

// AddTo accumulates the Vec into a dense per-cell slice: dst[cell] += value.
// Cells outside dst are ignored.
func (v Vec) AddTo(dst []float64) {
	for i, c := range v.cells {
		if c >= 0 && c < len(dst) {
			dst[c] += v.vals[i]
		}
	}
}

// Ledger is the dense per-cell accumulator for one frame's resource use:
// forward-link transmit power or reverse-link received power, indexed by
// cell. It is allocated once per engine and refilled every frame.
type Ledger struct {
	vals []float64
}

// NewLedger returns a Ledger for nCells cells, all zero.
func NewLedger(nCells int) *Ledger {
	return &Ledger{vals: make([]float64, nCells)}
}

// Fill sets every cell to x (the per-frame reset: common-channel overhead on
// the forward link, the normalised noise floor on the reverse link).
func (l *Ledger) Fill(x float64) {
	for k := range l.vals {
		l.vals[k] = x
	}
}

// Add accumulates x into cell.
func (l *Ledger) Add(cell int, x float64) { l.vals[cell] += x }

// AddVec accumulates every entry of v.
func (l *Ledger) AddVec(v Vec) { v.AddTo(l.vals) }

// Get returns the current total for cell.
func (l *Ledger) Get(cell int) float64 { return l.vals[cell] }

// Values exposes the dense per-cell slice (shared, not a copy): this is what
// the measurement sub-layer reads as ForwardState.CurrentLoad or
// ReverseState.TotalReceived.
func (l *Ledger) Values() []float64 { return l.vals }
