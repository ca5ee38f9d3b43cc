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
// pilot power by construction).

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

// PilotSetCellsInto computes the pilot Ec/Io of every cell of a candidate
// window at a mobile whose link gains (linear, combining path loss and
// shadowing, but NOT fast fading — pilots are measured over many symbols)
// are given per slot. pilotFraction is the fraction of each cell's transmit
// power devoted to the pilot, txPower is the common cell transmit power and
// noise the thermal noise power at the mobile. The Io total sums the
// window's cells only, and each measurement carries the GLOBAL cell index
// from cells[i] and its slot i. dst is reused (resliced to length zero); the
// result is sorted by decreasing Ec/Io with an insertion sort, which avoids
// sort.Slice's reflection-based swapper in the frame loop. Used by the
// exact (dB-domain) physics path.
func PilotSetCellsInto(dst []PilotMeasurement, cells []int32, gains []float64, pilotFraction, txPower, noise float64) []PilotMeasurement {
	total := noise
	for _, g := range gains {
		total += txPower * g
	}
	dst = dst[:0]
	for i, g := range gains {
		ec := pilotFraction * txPower * g
		ecio := ec / total
		dst = append(dst, PilotMeasurement{
			Cell:   cells[i],
			Slot:   int32(i),
			EcIo:   ecio,
			EcIoDB: 10 * math.Log10(math.Max(ecio, 1e-30)),
			GainDB: 10 * math.Log10(math.Max(g, 1e-30)),
		})
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j-1].EcIo < dst[j].EcIo; j-- {
			dst[j-1], dst[j] = dst[j], dst[j-1]
		}
	}
	return dst
}

// PilotSetCellsLinearInto is PilotSetCellsInto without the per-cell dB
// conversions: EcIo is computed and sorted exactly as in the dB version,
// while EcIoDB and GainDB are left zero. Use with ActiveSetLinearInto.
//
// It is frame-coherent: when dst already holds one entry per candidate the
// new Ec/Io values are written into last frame's order (each retained entry
// reads its gain through its Slot, checked in O(1) against the candidate
// list) and the insertion sort only repairs the few rank inversions one
// frame of drift produces — O(n) instead of the O(n^2) moves a
// from-scratch sort of n cells costs. The sorted result is identical as
// long as EcIo values are distinct (exact ties may order by history rather
// than by cell index); callers must therefore give each mobile its own
// buffer. After a retarget the caller must reslice dst to length zero — the
// stale entries may name cells no longer in the window, or sit at other
// slots; a stale entry is detected and triggers a full rebuild, so results
// stay correct either way.
func PilotSetCellsLinearInto(dst []PilotMeasurement, cells []int32, gains []float64, pilotFraction, txPower, noise float64) []PilotMeasurement {
	total := noise
	for _, g := range gains {
		total += txPower * g
	}
	scale := pilotFraction * txPower / total
	if len(dst) == len(cells) {
		ok := true
		for i := range dst {
			s := dst[i].Slot
			if uint(s) >= uint(len(cells)) || cells[s] != dst[i].Cell {
				ok = false
				break
			}
			dst[i].EcIo = scale * gains[s]
		}
		if ok {
			for i := 1; i < len(dst); i++ {
				for j := i; j > 0 && dst[j-1].EcIo < dst[j].EcIo; j-- {
					dst[j-1], dst[j] = dst[j], dst[j-1]
				}
			}
			return dst
		}
	}
	dst = dst[:0]
	for i, g := range gains {
		dst = append(dst, PilotMeasurement{Cell: cells[i], Slot: int32(i), EcIo: scale * g})
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j-1].EcIo < dst[j].EcIo; j-- {
			dst[j-1], dst[j] = dst[j], dst[j-1]
		}
	}
	return dst
}
