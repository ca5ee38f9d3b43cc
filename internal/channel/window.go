package channel

import (
	"fmt"
	"slices"
)

// MaxWindowWidth bounds the width of a Window whose candidate list moves.
// Retarget carries the old slot shadowing across the merge in a fixed
// stack array of this size so the concurrent per-user update fan-out needs
// no per-goroutine scratch. A wider window is allowed when it never merges:
// a map-wide window, whose candidate list is every cell in every bucket, is
// targeted once and never moves again.
const MaxWindowWidth = 256

// Window is the windowed form of Batch for city-size maps: instead of one
// channel column per (user, cell) pair — O(users x cells) memory and
// per-frame work — each user tracks only `width` slots, one per candidate
// cell of its current spatial bucket (see internal/spatial). The embedded
// Batch holds the per-slot shadowing state, gains and RNG substreams with
// cells == width, so the AdvanceExact / AdvanceFast / AdvancePausedExact
// kernels and the checkpoint state run unchanged over the window; Window
// adds the Retarget merge that migrates slot state when a user crosses into
// a bucket with a different candidate list.
//
// Window stores no slot-to-cell map. A user's slot i belongs to cell
// cand[i] of the candidate list it was last retargeted to, which the caller
// keeps — the engine aliases the spatial index's immutable per-bucket list —
// and hands back to Retarget as the old list on the next move.
//
// Determinism: slot i of user u always draws from the same substream
// (parent.Split(base+i)), and the number of draws a stream takes per frame
// depends only on the user's own trajectory (entering slots draw once at
// retarget time). The state is therefore independent of any worker or tile
// partition, exactly like Batch.
type Window struct {
	*Batch // cells == the window width
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
	return &Window{Batch: NewBatch(users, width, pl, sigmaDB, decorrM)}
}

// Width returns the per-user slot count.
func (w *Window) Width() int { return w.cells }

// Retarget moves user u's window from the candidate list old to cand
// (global cell indices, ascending, exactly width long — as internal/spatial
// produces per bucket; old is nil before the user's first target) and
// reports whether the list changed. Slots whose cell stays in the window
// carry their shadowing state across the move; entering cells take a fresh
// initial shadowing draw from their slot's substream. Before the user's
// first advance nothing is drawn — AdvanceExact/AdvanceFast take the
// initial draws for the whole window. Neither list is modified. A window
// wider than MaxWindowWidth panics on a merge: it must be map-wide, so its
// candidate list never moves.
func (w *Window) Retarget(u int, old, cand []int32) bool {
	width := w.cells
	if len(cand) != width {
		panic(fmt.Sprintf("channel: retarget with %d candidates, window width is %d", len(cand), width))
	}
	if slices.Equal(old, cand) {
		return false
	}
	b := w.Batch
	if !b.ready[u] {
		return true
	}
	if len(old) != width {
		panic(fmt.Sprintf("channel: retarget of an advanced user from %d candidates, window width is %d", len(old), width))
	}
	if width > MaxWindowWidth {
		panic(fmt.Sprintf("channel: window of width %d > %d cannot move after its first advance", width, MaxWindowWidth))
	}
	off := u * width
	shadow := b.shadowDB[off : off+width]
	var oldS [MaxWindowWidth]float64
	copy(oldS[:width], shadow)
	j := 0
	for i, c := range cand {
		for j < width && old[j] < c {
			j++
		}
		if j < width && old[j] == c {
			shadow[i] = oldS[j]
		} else {
			// A cell entering the window starts a fresh shadowing process on
			// the slot's own substream.
			shadow[i] = b.src[off+i].Normal(0, b.sigmaDB)
		}
	}
	return true
}
