package rng

import (
	"math"

	"jabasd/internal/checkpoint"
)

// EncodeState appends the source's complete mutable state — the xoshiro
// words and the cached Box-Muller spare — so a decoded source continues the
// stream bit for bit. The spare is stored as a value and a has-spare flag
// (an empty spare writes 0, false).
func (r *Source) EncodeState(w *checkpoint.Writer) {
	for _, s := range r.s {
		w.U64(s)
	}
	if r.spare == noSpare {
		w.F64(0)
		w.Bool(false)
	} else {
		w.F64(r.spare)
		w.Bool(true)
	}
}

// DecodeState restores the state written by EncodeState. A flagged spare
// that no Box-Muller draw can produce — non-finite, or the empty-spare
// sentinel — fails the reader.
func (r *Source) DecodeState(rd *checkpoint.Reader) {
	for i := range r.s {
		r.s[i] = rd.U64()
	}
	spare, has := rd.F64(), rd.Bool()
	switch {
	case !has:
		r.spare = noSpare
	case math.IsNaN(spare) || math.IsInf(spare, 0) || spare == noSpare:
		rd.Fail("rng: stored Gaussian spare %v is not a Box-Muller variate", spare)
	default:
		r.spare = spare
	}
}
