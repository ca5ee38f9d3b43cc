package rng

import (
	"math"

	"jabasd/internal/checkpoint"
)

// Persist writes or reads the source's complete mutable state — the
// xoshiro words and the cached Box-Muller spare — so a restored source
// continues the stream bit for bit. The spare is stored as a value and a
// has-spare flag (an empty spare writes 0, false). Reading, a flagged spare
// that no Box-Muller draw can produce — non-finite, or the empty-spare
// sentinel — fails the codec.
func (r *Source) Persist(c *checkpoint.Codec) {
	for i := range r.s {
		c.U64(&r.s[i])
	}
	spare, has := r.spare, r.spare != noSpare
	if !has {
		spare = 0
	}
	c.F64(&spare)
	c.Bool(&has)
	switch {
	case !c.Reading():
	case !has:
		r.spare = noSpare
	case math.IsNaN(spare) || math.IsInf(spare, 0) || spare == noSpare:
		c.Fail("rng: stored Gaussian spare %v is not a Box-Muller variate", spare)
	default:
		r.spare = spare
	}
}
