package stats

import "jabasd/internal/checkpoint"

// Persist writes or reads the accumulator's complete state.
func (r *Running) Persist(c *checkpoint.Codec) {
	c.I64(&r.n)
	c.F64(&r.mean)
	c.F64(&r.m2)
}

// Persist writes or reads the sample's observations in insertion order plus
// the sorted flag. The order matters: Mean sums the values as they were
// added, so a reordered restore would change the rounding of downstream
// reports.
func (s *Sample) Persist(c *checkpoint.Codec) {
	c.F64s(&s.xs)
	c.Bool(&s.sorted)
}

// Persist writes or reads the integrator's complete state.
func (tw *TimeWeighted) Persist(c *checkpoint.Codec) {
	c.F64(&tw.lastT)
	c.F64(&tw.lastV)
	c.F64(&tw.area)
	c.F64(&tw.duration)
	c.Bool(&tw.started)
}
