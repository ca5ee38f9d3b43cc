// Package shard partitions the hexagonal cell grid into contiguous tiles:
// balanced spans of cell indices. A tile is the grain of the city-scale
// snapshot frame loop's solve fan-out — each pool task solves the queued
// cells of one span — and nothing more: scheduler clones and scratch belong
// to the pool workers, the region cache is engine-wide, and every cell
// reads the same immutable frame-start load ledger. Because the engine
// creates users cell by cell in index order, a contiguous cell span also
// covers a contiguous user-id range.
package shard

// Span is a half-open range of cell indices [Lo, Hi) covered by one tile.
type Span struct {
	Lo, Hi int
}

// Plan is a partition of cells [0, Cells) into contiguous, balanced tile
// spans. The zero value is an empty plan.
type Plan struct {
	// Cells is the total cell count being partitioned.
	Cells int
	// Spans are the tile spans in ascending cell order; span i is tile i.
	Spans []Span
}

// NewPlan partitions cells into the requested number of contiguous tiles,
// clamped to [1, cells]: span sizes differ by at most one (the first
// cells%tiles tiles take the extra cell). Iterating the spans in order
// visits every cell exactly once in ascending index order, which is what
// keeps tiled per-frame output byte-identical to the untiled loop.
func NewPlan(cells, tiles int) Plan {
	if cells < 1 {
		return Plan{}
	}
	if tiles < 1 {
		tiles = 1
	}
	if tiles > cells {
		tiles = cells
	}
	base, rem := cells/tiles, cells%tiles
	p := Plan{Cells: cells, Spans: make([]Span, tiles)}
	lo := 0
	for t := range p.Spans {
		size := base
		if t < rem {
			size++
		}
		p.Spans[t] = Span{Lo: lo, Hi: lo + size}
		lo += size
	}
	return p
}
