package cellular

import "math"

// Windowed variants of the geometry and pilot kernels: instead of scanning
// every base station they operate on an explicit candidate subset — the
// cells of a user's measurement window, as produced per bucket by
// internal/spatial. The candidate slice carries GLOBAL cell indices, sorted
// ascending, and the parallel gain/distance slices are SLOT-indexed
// (gains[i] belongs to cells[i]). The arithmetic per candidate is identical
// to the full-scan kernels'; only the set of cells entering the Io total is
// restricted to the window, which is the windowed physics' modelling
// approximation (cells beyond the window contribute negligible pilot
// power by construction).

// DistanceSq returns the SQUARED distance from p to base station k, with
// exactly the arithmetic of DistancesSqInto (abs-diff fold, no square
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
// candidate cell cells[i], identically to DistancesSqInto restricted to the
// subset. The loop is DistanceSq inlined with the half extents hoisted, as
// in DistancesSqInto.
func (l *Layout) DistancesSqForInto(p Point, cells []int32, dst []float64) {
	if !l.WrapAround {
		for i, k := range cells {
			b := l.Cells[k].Position
			dx, dy := p.X-b.X, p.Y-b.Y
			dst[i] = dx*dx + dy*dy
		}
		return
	}
	halfW, halfH := l.width/2, l.height/2
	for i, k := range cells {
		b := l.Cells[k].Position
		dx, dy := math.Abs(p.X-b.X), math.Abs(p.Y-b.Y)
		if dx > halfW {
			dx = l.width - dx
		}
		if dy > halfH {
			dy = l.height - dy
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

// PilotSetCellsInto is PilotSetInto restricted to a candidate window: the
// Io total sums the window's cells only, each measurement carries the
// GLOBAL cell index from cells[i] and its slot i, and the result is sorted
// by decreasing Ec/Io with the same insertion sort. Used by the exact
// (dB-domain) windowed physics path.
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

// PilotSetCellsLinearInto is PilotSetLinearInto restricted to a candidate
// window (linear domain, EcIoDB/GainDB left zero). Like the full-scan
// version it is frame-coherent: when dst already holds one entry per
// candidate the new Ec/Io values are written into last frame's order (each
// retained entry reads its gain through its Slot, checked in O(1) against
// the candidate list) and the insertion sort only repairs one frame of
// drift. After a retarget the caller must reslice dst to length zero — the
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
