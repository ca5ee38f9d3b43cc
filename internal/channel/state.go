package channel

import "jabasd/internal/checkpoint"

// Persist writes or reads the batch's mutable channel state: shadowing,
// gains, the per-user readiness flags and every shadowing substream.
// Distances are not state: each advance reads a row its caller has just
// filled. Reading restores into the existing batch in place, so rows handed
// out by GainRow keep aliasing the restored storage; the stored users x
// cells dimensions must be the batch's.
func (b *Batch) Persist(c *checkpoint.Codec) {
	users, cells := b.users, b.cells
	c.Int(&users)
	c.Int(&cells)
	if users != b.users || cells != b.cells {
		c.Fail("channel batch is %dx%d, checkpoint %dx%d", b.users, b.cells, users, cells)
		return
	}
	c.FillF64s(b.shadowDB)
	c.FillF64s(b.gain)
	c.FillBools(b.ready)
	for i := range b.src {
		b.src[i].Persist(c)
	}
}
