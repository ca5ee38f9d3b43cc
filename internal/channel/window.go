package channel

import "fmt"

// MaxWindowWidth bounds the width of a Window whose candidate list moves.
// Retarget carries the old slot state across the merge in fixed stack
// arrays of this size so the concurrent per-user update fan-out needs no
// per-goroutine scratch. A wider window is allowed when it never merges: a
// map-wide window, whose candidate list is every cell in every bucket, is
// targeted once and never moves again.
const MaxWindowWidth = 256

// Window is the windowed form of Batch for city-size maps: instead of one
// channel column per (user, cell) pair — O(users x cells) memory and
// per-frame work — each user tracks only `width` slots, one per candidate
// cell of its current spatial bucket (see internal/spatial). The embedded
// Batch holds the per-slot shadowing state, gains and RNG
// substreams with cells == width, so the AdvanceExact / AdvanceFast /
// AdvancePausedExact kernels run unchanged over the window; Window adds the
// slot-to-cell mapping and the Retarget merge that migrates slot state when
// a user crosses into a bucket with a different candidate list.
//
// Determinism: slot i of user u always draws from the same substream
// (parent.Split(base+i)), and the number of draws a stream takes per frame
// depends only on the user's own trajectory (entering slots draw once at
// retarget time). The state is therefore independent of any worker or tile
// partition, exactly like Batch.
type Window struct {
	*Batch
	width int
	cells []int32 // users x width slot-to-cell map; -1 = not yet targeted
}

// NewWindow allocates windowed channel state for users, each tracking
// width candidate cells. Width must be at least 1; above MaxWindowWidth the
// window may only be targeted before its first advance (see Retarget).
// Every user must be seeded with SeedUser and given an initial Retarget
// before advancing.
func NewWindow(users, width int, pl PathLossModel, sigmaDB, decorrM float64) *Window {
	if width < 1 {
		panic(fmt.Sprintf("channel: window width %d is not positive", width))
	}
	w := &Window{
		Batch: NewBatch(users, width, pl, sigmaDB, decorrM),
		width: width,
		cells: make([]int32, users*width),
	}
	for i := range w.cells {
		w.cells[i] = -1
	}
	return w
}

// Width returns the per-user slot count.
func (w *Window) Width() int { return w.width }

// CellRow returns user u's slot-to-cell map: global cell indices, ascending.
// Callers may alias it for the lifetime of the window; Retarget updates it
// in place.
func (w *Window) CellRow(u int) []int32 {
	return w.cells[u*w.width : (u+1)*w.width]
}

// Retarget points user u's window at a new candidate list (global cell
// indices, ascending, exactly width long — as internal/spatial produces per
// bucket) and reports whether the window changed. Slots whose cell stays in
// the window carry their shadowing state across the move; entering cells
// take a fresh initial shadowing draw from their slot's substream. Before
// the user's first advance the list is recorded without any draws —
// AdvanceExact/AdvanceFast take the initial draws for the whole window. A
// window wider than MaxWindowWidth panics on a merge: it must be map-wide,
// so its candidate list never moves.
func (w *Window) Retarget(u int, cand []int32) bool {
	if len(cand) != w.width {
		panic(fmt.Sprintf("channel: retarget with %d candidates, window width is %d", len(cand), w.width))
	}
	off := u * w.width
	row := w.cells[off : off+w.width]
	same := true
	for i := range row {
		if row[i] != cand[i] {
			same = false
			break
		}
	}
	if same {
		return false
	}
	b := w.Batch
	if !b.ready[u] {
		copy(row, cand)
		return true
	}
	if w.width > MaxWindowWidth {
		panic(fmt.Sprintf("channel: window of width %d > %d cannot move after its first advance", w.width, MaxWindowWidth))
	}
	shadow := b.shadowDB[off : off+w.width]
	var oldC [MaxWindowWidth]int32
	var oldS [MaxWindowWidth]float64
	copy(oldC[:w.width], row)
	copy(oldS[:w.width], shadow)
	j := 0
	for i, c := range cand {
		for j < w.width && oldC[j] < c {
			j++
		}
		if j < w.width && oldC[j] == c {
			shadow[i] = oldS[j]
		} else {
			// A cell entering the window starts a fresh shadowing process on
			// the slot's own substream.
			shadow[i] = b.src[off+i].Normal(0, b.sigmaDB)
		}
		row[i] = c
	}
	return true
}
