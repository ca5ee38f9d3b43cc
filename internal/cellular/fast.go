package cellular

import "math"

// Linear-domain variants of the pilot decisions and a squared-distance
// serving-cell scan for the simulator's fast physics path. The dB-domain
// PilotSetCellsInto spends a log10 call per kept pilot (the strongest
// TopPilots of the window) on an EcIoDB value whose only hot consumer
// — the active-set rules — compares differences of logs, which is exactly a
// ratio comparison in the linear domain. PilotSetCellsLinearInto skips the
// logs (leaving EcIoDB zero) and repairs last frame's top entries in place
// rather than selecting afresh, and ActiveSetLinearInto applies
// the identical add/drop rules on linear thresholds the caller precomputes
// once:
//
//	minEcIo      = 10^(minEcIoDB/10)
//	addFactor    = 10^(-addThresholdDB/10)
//
// so `p.EcIoDB >= best - addThresholdDB` becomes `p.EcIo >= best*addFactor`.
// Decisions can differ from the dB path only when a pilot sits within a few
// ulps of a threshold; the engine's exact reference mode keeps the dB path.

// NearestCellSq returns the index of the base station closest to p by
// scanning SQUARED distances (DistanceSq) — no square roots. Because sqrt
// is monotonic the winner matches NearestCell except when two true distances round to the same float64 after
// sqrt while their squares differ (NearestCell then keeps the earlier index,
// NearestCellSq the truly closer one); the engine's exact reference path
// keeps the metre-domain search so golden outputs cannot shift on that
// measure-zero edge. internal/spatial answers both queries with the same
// winners and tie-breaks; these linear scans are its reference.
func (l *Layout) NearestCellSq(p Point) int {
	best, bestD2 := -1, math.Inf(1)
	for k := range l.Cells {
		if d2 := l.DistanceSq(p, k); d2 < bestD2 {
			best, bestD2 = k, d2
		}
	}
	return best
}

// ActiveSetLinearInto applies the ActiveSetInto add rules in the linear
// domain: minEcIo and addFactor are the precomputed linear forms of the dB
// thresholds (see the package comment above).
func ActiveSetLinearInto(dst []int, pilots []PilotMeasurement, addFactor, minEcIo float64, maxSize int) []int {
	dst = dst[:0]
	if len(pilots) == 0 || maxSize <= 0 {
		return dst
	}
	threshold := pilots[0].EcIo * addFactor
	for _, p := range pilots {
		if len(dst) >= maxSize {
			break
		}
		if p.EcIo < minEcIo {
			continue
		}
		if p.EcIo >= threshold {
			dst = append(dst, int(p.Cell))
		}
	}
	return dst
}
