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
	if dx > l.width/2 {
		dx = l.width - dx
	}
	if dy > l.height/2 {
		dy = l.height - dy
	}
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
// need log10(d) = log10(d^2)/2. The loop is DistanceSq inlined with the
// half extents hoisted.
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
	halfW, halfH := width/2, height/2
	for i, k := range cells {
		b := sites[k].Position
		// math.Abs compiles to a sign-bit clear; the sign of p-b is a coin
		// flip per cell, so an if/neg pair here mispredicts constantly. The
		// wrap tests below stay as branches — whether a given (user, cell)
		// pair wraps is stable across frames, so they predict well.
		dx, dy := math.Abs(p.X-b.X), math.Abs(p.Y-b.Y)
		if dx > halfW {
			dx = width - dx
		}
		if dy > halfH {
			dy = height - dy
		}
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
// kernel re-ranks those entries on the new gains — an insertion sort that
// only repairs the few inversions one frame of drift produces — and makes
// one pass over the window counting the slots stronger than the last kept
// entry. Only when that count shows a cell has entered does it re-select
// from scratch. The result equals a from-scratch call as long as the Ec/Io
// values are distinct (exact ties may order by history rather than by
// slot); callers must therefore give each mobile its own buffer. After a
// retarget the caller must reslice dst to length zero — the stale entries
// may name cells no longer in the window, or sit at other slots; a stale
// entry is detected and triggers a re-selection, so results stay correct
// either way.
func PilotSetCellsLinearInto(dst []PilotMeasurement, cells []int32, gains []float64, down []bool, pilotFraction, txPower, noise float64) []PilotMeasurement {
	total := noise
	for _, g := range gains {
		total += txPower * g
	}
	scale := pilotFraction * txPower / total
	k := min(TopPilots, len(cells))
	if len(dst) == k && rerankPilots(dst, cells, gains, down, scale) && !pilotEntered(dst, cells, gains, down, scale) {
		return dst
	}
	return topPilots(dst, k, cells, gains, down, func(g float64) float64 { return scale * g })
}

// rerankPilots writes the new Ec/Io into last frame's entries through their
// slots and restores the strongest-first order, keeping last frame's order
// among ties. It reports false, leaving dst partly updated, when an entry is
// stale (its slot no longer holds its cell) or its cell is down.
func rerankPilots(dst []PilotMeasurement, cells []int32, gains []float64, down []bool, scale float64) bool {
	for i := range dst {
		s := dst[i].Slot
		if uint(s) >= uint(len(cells)) || cells[s] != dst[i].Cell || (down != nil && down[dst[i].Cell]) {
			return false
		}
		dst[i].EcIo = scale * gains[s]
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j-1].EcIo < dst[j].EcIo; j-- {
			dst[j-1], dst[j] = dst[j], dst[j-1]
		}
	}
	return true
}

// pilotEntered reports whether a window cell outside the re-ranked entries
// in dst is now strictly stronger than the last of them: more in-service
// slots beat its Ec/Io than the kept entries account for. A full window
// (every slot kept) has nothing outside it.
func pilotEntered(dst []PilotMeasurement, cells []int32, gains []float64, down []bool, scale float64) bool {
	if len(dst) == len(cells) {
		return false
	}
	floor := dst[len(dst)-1].EcIo
	kept := 0
	for _, p := range dst {
		if p.EcIo > floor {
			kept++
		}
	}
	// Two loops: without a mask the count compiles branch-free.
	stronger := 0
	if down == nil {
		for _, g := range gains {
			if scale*g > floor {
				stronger++
			}
		}
	} else {
		for s, g := range gains {
			if scale*g > floor && !down[cells[s]] {
				stronger++
			}
		}
	}
	return stronger > kept
}

// topPilots selects into dst the k strongest in-service cells of the window
// by the Ec/Io ecio(gain), in one pass in slot order: an entry joins when
// fewer than k are held or it beats the weakest held, and is inserted after
// every held entry at least as strong, so ties keep slot order and the
// result is the first k entries of a stable sort. When every cell is down
// the selection runs again with none excluded.
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
		v := ecio(g)
		n := len(dst)
		if n == k {
			if !(v > dst[n-1].EcIo) {
				continue
			}
			n-- // the weakest held entry drops out
		} else {
			dst = dst[:n+1]
		}
		for n > 0 && dst[n-1].EcIo < v {
			dst[n] = dst[n-1]
			n--
		}
		dst[n] = PilotMeasurement{Cell: cells[s], Slot: int32(s), EcIo: v}
	}
	if len(dst) == 0 && down != nil {
		return topPilots(dst, k, cells, gains, nil, ecio)
	}
	return dst
}
