package cellular

import "math"

// Windowed geometry and pilot kernels: they operate on an explicit
// candidate subset — the cells of a user's measurement window, as produced
// per bucket by internal/spatial. The candidate slice carries GLOBAL cell
// indices, sorted ascending, and the parallel gain/distance slices are
// SLOT-indexed (gains[i] belongs to cells[i]). A map-wide window (every
// cell, in order) is the full per-cell scan; a narrower one restricts the
// set of cells entering the Io total, which is the windowed physics'
// modelling approximation (cells beyond the window contribute negligible
// pilot power by construction). Every cell of the window enters the Io
// total, but the pilot kernels keep only the strongest TopPilots entries:
// no consumer reads further down the list.

// DistanceSq returns the SQUARED distance from p to base station k, with
// exactly the arithmetic of DistancesSqForInto (abs-diff fold, no square
// root), so selections made on it match the batched fast path bit for bit.
func (l *Layout) DistanceSq(p Point, k int) float64 {
	b := l.Cells[k].Position
	if !l.WrapAround {
		dx, dy := p.X-b.X, p.Y-b.Y
		return dx*dx + dy*dy
	}
	dx, dy := math.Abs(p.X-b.X), math.Abs(p.Y-b.Y)
	dx, dy = min(dx, l.width-dx), min(dy, l.height-dy)
	return dx*dx + dy*dy
}

// DistancesForInto fills dst[i] with the metre distance from p to candidate
// cell cells[i], identically to per-cell Distance calls.
func (l *Layout) DistancesForInto(p Point, cells []int32, dst []float64) {
	for i, k := range cells {
		dst[i] = l.Distance(p, int(k))
	}
}

// DistancesSqForInto fills dst[i] with the SQUARED distance from p to
// candidate cell cells[i], identically to per-cell DistanceSq calls, saving
// the square root for callers — like the fast path-loss kernel — that only
// need log10(d) = log10(d^2)/2. The loop is DistanceSq inlined.
//
// The wrap-around fold is min(d, width-d) rather than "if d > width/2",
// and picks the same bits: for d in [width/2, 2*width] the difference
// width-d is exact (Sterbenz) and no larger than d; below width/2 the
// rounded width-d is still at least width/2 > d; beyond 2*width, and for an
// infinite d, width-d is negative, so both forms take it; a NaN passes
// through either way.
func (l *Layout) DistancesSqForInto(p Point, cells []int32, dst []float64) {
	// Locals keep the site table and extents in registers: the stores to
	// dst would otherwise make the compiler reload them from l every cell.
	sites := l.Cells
	dst = dst[:len(cells)]
	if !l.WrapAround {
		for i, k := range cells {
			b := sites[k].Position
			dx, dy := p.X-b.X, p.Y-b.Y
			dst[i] = dx*dx + dy*dy
		}
		return
	}
	width, height := l.width, l.height
	for i, k := range cells {
		b := sites[k].Position
		// No data-dependent branch: math.Abs is a sign-bit clear and the
		// fold a min. The sign of p-b is a coin flip per cell, and on a
		// map-wide window which cells wrap shifts as the user moves, so
		// compare-and-jump forms of either step mispredict.
		dx, dy := math.Abs(p.X-b.X), math.Abs(p.Y-b.Y)
		dx, dy = min(dx, width-dx), min(dy, height-dy)
		dst[i] = dx*dx + dy*dy
	}
}

// FindCell returns the slot of a global cell index within an ascending
// candidate list, or -1 when the cell is outside the window. Binary search,
// for cold paths only — rebuilding pilot slots on checkpoint restore and
// checking them in tests: the frame loop reads each pilot entry's Slot
// instead.
func FindCell(cells []int32, cell int32) int {
	lo, hi := 0, len(cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if cells[mid] < cell {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cells) && cells[lo] == cell {
		return lo
	}
	return -1
}

// TopPilots is the number of pilot entries the pilot kernels keep: the
// strongest min(TopPilots, window) cells, strongest first. Every consumer
// reads only a prefix — the active set (at most 3 cells; both add rules are
// monotone in Ec/Io, so it is a prefix), the reduced active set (2) and the
// SCRM payload, which carries at most 8 pilots — so the tail of the window
// is neither stored nor sorted.
const TopPilots = 8

// PilotSetCellsInto computes the pilot Ec/Io of the cells of a candidate
// window at a mobile whose link gains (linear, combining path loss and
// shadowing, but NOT fast fading — pilots are measured over many symbols)
// are given per slot, and returns the strongest min(TopPilots, len(cells))
// of them. pilotFraction is the fraction of each cell's transmit power
// devoted to the pilot, txPower is the common cell transmit power and noise
// the thermal noise power at the mobile. The Io total sums every cell of the
// window, and each measurement carries the GLOBAL cell index from cells[i]
// and its slot i. The result is ordered by decreasing Ec/Io with ties in
// slot order — exactly the first entries of a stable sort of the whole
// window — and only the kept entries pay the dB conversion. Cells
// marked in down (indexed by global cell; nil when every cell is in
// service) are skipped, unless every cell of the window is down: the user
// is then in a coverage hole and keeps measuring them all. dst is reused
// (resliced to length zero). Used by the exact (dB-domain) physics path.
func PilotSetCellsInto(dst []PilotMeasurement, cells []int32, gains []float64, down []bool, pilotFraction, txPower, noise float64) []PilotMeasurement {
	total := noise
	for _, g := range gains {
		total += txPower * g
	}
	ptx := pilotFraction * txPower
	k := min(TopPilots, len(cells))
	dst = topPilots(dst, k, cells, gains, down, func(g float64) float64 { return ptx * g / total })
	for i := range dst {
		dst[i].EcIoDB = 10 * math.Log10(math.Max(dst[i].EcIo, 1e-30))
	}
	return dst
}

// PilotSetCellsLinearInto is PilotSetCellsInto without the dB conversion:
// EcIo is computed, and the strongest entries selected, exactly as in the
// dB version, while EcIoDB is left zero. Use with
// ActiveSetLinearInto.
//
// It is frame-coherent: when dst already holds last frame's
// min(TopPilots, len(cells)) entries, each still naming its cell's slot
// (checked in O(1) against the candidate list) and none of them down, the
// kernel repairs those entries in place instead of selecting afresh. It
// re-ranks them on the new gains (rerankPilots), then (repairPilots) makes
// one pass over the window collecting the in-service slots whose Ec/Io is
// at least the weakest kept entry's, the floor. When those are just the
// kept entries, nothing has entered and the re-ranked entries are the
// result; otherwise the top entries are selected again from the collected
// slots alone: a slot below the floor trails every kept entry, so it cannot
// be among the strongest. A tie at the floor is collected too, so a lower
// slot wins it as in a stable sort. The result equals a from-scratch call
// bit for bit, ties included; when more slots reach the floor than the
// collection holds (16), the kernel selects afresh. After a retarget the
// caller must reslice dst to length zero — the stale entries may name
// cells no longer in the window, or sit at other slots; a stale entry is
// detected and triggers a full selection, so results stay correct either
// way.
func PilotSetCellsLinearInto(dst []PilotMeasurement, cells []int32, gains []float64, down []bool, pilotFraction, txPower, noise float64) []PilotMeasurement {
	total := noise
	for _, g := range gains {
		total += txPower * g
	}
	scale := pilotFraction * txPower / total
	k := min(TopPilots, len(cells))
	if len(dst) == k && rerankPilots(dst, cells, gains, down, scale) && repairPilots(dst, cells, gains, down, scale) {
		return dst
	}
	return topPilots(dst, k, cells, gains, down, func(g float64) float64 { return scale * g })
}

// repairPilots completes the frame-coherent update of the re-ranked entries
// in dst: it collects the in-service slots at or above the floor and, when
// any besides the kept entries are among them, selects the strongest again
// from those slots alone, into dst. It reports false when the collection
// does not fit its buffer, or when fewer slots reach the floor than are
// kept (a NaN Ec/Io), and the caller selects afresh.
func repairPilots(dst []PilotMeasurement, cells []int32, gains []float64, down []bool, scale float64) bool {
	k := len(dst)
	if k == len(cells) {
		return true // every slot is kept: nothing can enter
	}
	// One pass counts the in-service slots at or above the floor and
	// collects them. The store is unconditional and only the count is
	// conditional, so the loop has no data-dependent branch. The store
	// index wraps (the length is a power of two), so once the count reaches
	// the buffer's length later stores overwrite earlier slots and the
	// collection is not used.
	floor := dst[k-1].EcIo
	var at [16]int32
	n := 0
	if down == nil {
		for s, g := range gains {
			at[n&(len(at)-1)] = int32(s)
			if scale*g >= floor {
				n++
			}
		}
	} else {
		for s, g := range gains {
			at[n&(len(at)-1)] = int32(s)
			if scale*g >= floor && !down[cells[s]] {
				n++
			}
		}
	}
	if n == k {
		return true
	}
	if n < k || n >= len(at) {
		return false
	}
	// More than k candidates, all in service: the selection refills dst to
	// length k.
	top := dst[:0]
	for _, s := range at[:n] {
		top = pushPilot(top, k, cells[s], s, scale*gains[s])
	}
	return true
}

// rerankPilots writes the new Ec/Io into last frame's entries through their
// slots and sorts them strictly by (Ec/Io descending, slot ascending), the
// order of a stable sort of the window — an insertion sort, since one frame
// of drift leaves only a few inversions. It reports false, leaving dst
// partly updated, when an entry is stale (its slot no longer holds its
// cell) or its cell is down.
func rerankPilots(dst []PilotMeasurement, cells []int32, gains []float64, down []bool, scale float64) bool {
	for i := range dst {
		s := dst[i].Slot
		if uint(s) >= uint(len(cells)) || cells[s] != dst[i].Cell || (down != nil && down[dst[i].Cell]) {
			return false
		}
		dst[i].EcIo = scale * gains[s]
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && (dst[j-1].EcIo < dst[j].EcIo || dst[j-1].EcIo == dst[j].EcIo && dst[j-1].Slot > dst[j].Slot); j-- {
			dst[j-1], dst[j] = dst[j], dst[j-1]
		}
	}
	return true
}

// topPilots selects into dst the k strongest in-service cells of the window
// by the Ec/Io ecio(gain), offering every slot to pushPilot in slot order,
// so the result is the first k entries of a stable sort. When every cell is
// down the selection runs again with none excluded.
func topPilots(dst []PilotMeasurement, k int, cells []int32, gains []float64, down []bool, ecio func(float64) float64) []PilotMeasurement {
	if cap(dst) < k {
		dst = make([]PilotMeasurement, 0, k)
	}
	dst = dst[:0]
	if k == 0 {
		return dst
	}
	for s, g := range gains {
		if down != nil && down[cells[s]] {
			continue
		}
		dst = pushPilot(dst, k, cells[s], int32(s), ecio(g))
	}
	if len(dst) == 0 && down != nil {
		return topPilots(dst, k, cells, gains, nil, ecio)
	}
	return dst
}

// pushPilot offers the entry (cell, slot, v) to dst, which holds at most k
// entries strongest first, within its capacity: the entry joins when fewer
// than k are held or it beats the weakest held, and is inserted after every
// held entry at least as strong. Offered in slot order, entries therefore
// end up in stable-sort order.
func pushPilot(dst []PilotMeasurement, k int, cell, slot int32, v float64) []PilotMeasurement {
	n := len(dst)
	if n == k {
		if !(v > dst[n-1].EcIo) {
			return dst
		}
		n-- // the weakest held entry drops out
	} else {
		dst = dst[:n+1]
	}
	for n > 0 && dst[n-1].EcIo < v {
		dst[n] = dst[n-1]
		n--
	}
	dst[n] = PilotMeasurement{Cell: cell, Slot: slot, EcIo: v}
	return dst
}
