// Package cellular models the multi-cell wideband CDMA network geometry:
// a hexagonal grid of base stations with wrap-around, forward-link pilot
// strength (Ec/Io) computation, and the active-set / reduced-active-set
// bookkeeping that drives soft hand-off and the paper's burst admission
// measurements (Section 3.1). The reduced active set for the high-speed SCH
// is the set of the two base stations with the strongest pilots, as in
// cdma2000.
package cellular

import "math"

// Point is a position in metres on the simulation plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// BaseStation is one cell site.
type BaseStation struct {
	ID       int
	Position Point
}

// Layout is a set of base stations arranged on a hexagonal grid. When
// WrapAround is true, distances are computed on a torus spanned by the grid's
// bounding box so edge cells see the same interference environment as centre
// cells (the standard trick for removing boundary effects in cellular
// simulation).
type Layout struct {
	Cells      []BaseStation
	CellRadius float64 // hexagon circumradius in metres
	WrapAround bool
	width      float64
	height     float64
}

// NewHexLayout builds a hexagonal layout with the given number of rings
// around a centre cell (rings = 0 gives 1 cell, 1 gives 7, 2 gives 19, ...).
func NewHexLayout(rings int, cellRadius float64, wrapAround bool) *Layout {
	if rings < 0 {
		rings = 0
	}
	if cellRadius <= 0 {
		cellRadius = 1000
	}
	l := &Layout{CellRadius: cellRadius, WrapAround: wrapAround}
	// Axial hex coordinates -> cartesian, pointy-top orientation with
	// inter-site distance sqrt(3)*R.
	d := math.Sqrt(3) * cellRadius
	id := 0
	for q := -rings; q <= rings; q++ {
		for r := -rings; r <= rings; r++ {
			s := -q - r
			if abs(q) > rings || abs(r) > rings || abs(s) > rings {
				continue
			}
			x := d * (float64(q) + float64(r)/2)
			y := d * (math.Sqrt(3) / 2) * float64(r)
			l.Cells = append(l.Cells, BaseStation{ID: id, Position: Point{x, y}})
			id++
		}
	}
	// Bounding box for wrap-around; pad by one inter-site distance.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, c := range l.Cells {
		minX = math.Min(minX, c.Position.X)
		maxX = math.Max(maxX, c.Position.X)
		minY = math.Min(minY, c.Position.Y)
		maxY = math.Max(maxY, c.Position.Y)
	}
	l.width = maxX - minX + d
	l.height = maxY - minY + d
	return l
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// NumCells returns the number of base stations.
func (l *Layout) NumCells() int { return len(l.Cells) }

// Bounds returns the width and height of the service area used for mobility
// and wrap-around.
func (l *Layout) Bounds() (width, height float64) { return l.width, l.height }

// Distance returns the distance from position p to base station k, honouring
// wrap-around when enabled.
func (l *Layout) Distance(p Point, k int) float64 {
	b := l.Cells[k].Position
	if !l.WrapAround {
		return p.Dist(b)
	}
	dx := math.Abs(p.X - b.X)
	dy := math.Abs(p.Y - b.Y)
	if dx > l.width/2 {
		dx = l.width - dx
	}
	if dy > l.height/2 {
		dy = l.height - dy
	}
	return math.Sqrt(dx*dx + dy*dy)
}

// NearestCell returns the index of the base station closest to p.
func (l *Layout) NearestCell(p Point) int {
	best, bestD := -1, math.Inf(1)
	for k := range l.Cells {
		if d := l.Distance(p, k); d < bestD {
			best, bestD = k, d
		}
	}
	return best
}

// PilotMeasurement is the strength of one cell's pilot as seen by a mobile.
// Slot is the index of the measured cell in the gain slice the set was built
// from — its position in the candidate window, which is the cell itself on
// a map-wide window — so a consumer reads the cell's gain as gains[p.Slot]
// without searching the window. Both indices are
// int32 to keep the struct at 24 bytes.
type PilotMeasurement struct {
	Cell   int32
	Slot   int32
	EcIo   float64 // linear Ec/Io (pilot chip energy over total received density)
	EcIoDB float64
}

// ActiveSetInto writes into dst (reused, resliced to length zero) the cells
// whose pilot is within addThresholdDB of the strongest pilot and above the
// absolute minimum minEcIoDB, capped at maxSize. This models the FCH soft
// hand-off active set.
func ActiveSetInto(dst []int, pilots []PilotMeasurement, addThresholdDB, minEcIoDB float64, maxSize int) []int {
	dst = dst[:0]
	if len(pilots) == 0 || maxSize <= 0 {
		return dst
	}
	best := pilots[0].EcIoDB
	for _, p := range pilots {
		if len(dst) >= maxSize {
			break
		}
		if p.EcIoDB < minEcIoDB {
			continue
		}
		if best-p.EcIoDB <= addThresholdDB {
			dst = append(dst, int(p.Cell))
		}
	}
	return dst
}

// ReducedActiveSetInto writes into dst (reused, resliced to length zero) the
// reduced active set used for the high-speed supplemental channel: the (at
// most) two strongest pilots of the FCH active set, as assumed by the paper
// (footnote 4). The active set is at most a handful of cells, so membership
// is a linear scan rather than a per-frame map.
func ReducedActiveSetInto(dst []int, pilots []PilotMeasurement, activeSet []int) []int {
	dst = dst[:0]
	for _, p := range pilots { // pilots already sorted by strength
		for _, c := range activeSet {
			if c == int(p.Cell) {
				dst = append(dst, c)
				break
			}
		}
		if len(dst) == 2 {
			break
		}
	}
	return dst
}
