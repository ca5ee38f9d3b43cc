package channel

import "jabasd/internal/checkpoint"

// EncodeState appends the batch's mutable channel state: shadowing, gains,
// the per-user readiness flags and every shadowing substream. Distances are
// not state: each advance reads a row its caller has just filled.
func (b *Batch) EncodeState(w *checkpoint.Writer) {
	w.Int(b.users)
	w.Int(b.cells)
	w.F64s(b.shadowDB)
	w.F64s(b.gain)
	w.Bools(b.ready)
	for i := range b.src {
		b.src[i].EncodeState(w)
	}
}

// DecodeState restores the state written by EncodeState into the existing
// batch in place, so rows handed out by GainRow keep aliasing the restored
// storage. The batch must have the same users x cells dimensions.
func (b *Batch) DecodeState(rd *checkpoint.Reader) {
	users, cells := rd.Int(), rd.Int()
	if users != b.users || cells != b.cells {
		rd.Fail("channel batch is %dx%d, checkpoint %dx%d", b.users, b.cells, users, cells)
		return
	}
	rd.FillF64s(b.shadowDB)
	rd.FillF64s(b.gain)
	rd.FillBools(b.ready)
	for i := range b.src {
		b.src[i].DecodeState(rd)
	}
}
