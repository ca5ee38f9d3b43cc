package load

import "jabasd/internal/checkpoint"

// Persist writes or reads the vector's entries in their stored order (Set
// order, which downstream AddVec walks, so the order is part of the state).
func (v *Vec) Persist(c *checkpoint.Codec) {
	c.Ints(&v.cells)
	c.F64s(&v.vals)
	if c.Reading() && len(v.cells) != len(v.vals) {
		c.Fail("load vector with %d cells but %d values", len(v.cells), len(v.vals))
	}
}
