package shard

import (
	"math"
	"testing"
)

func TestNewPlanPartition(t *testing.T) {
	for _, tc := range []struct{ cells, tiles, wantTiles int }{
		{19, 1, 1},
		{19, 4, 4},
		{19, 19, 19},
		{19, 40, 19}, // clamped to one cell per tile
		{19, 0, 1},   // clamped up
		{19, -3, 1},
		{1027, 8, 8},
	} {
		p := NewPlan(tc.cells, tc.tiles)
		if len(p.Spans) != tc.wantTiles {
			t.Fatalf("NewPlan(%d, %d): %d tiles, want %d", tc.cells, tc.tiles, len(p.Spans), tc.wantTiles)
		}
		// Spans are contiguous, ascending, cover [0, cells) exactly, and are
		// balanced to within one cell.
		next := 0
		minLen, maxLen := math.MaxInt, 0
		for _, s := range p.Spans {
			if s.Lo != next {
				t.Fatalf("NewPlan(%d, %d): span %+v does not start at %d", tc.cells, tc.tiles, s, next)
			}
			n := s.Hi - s.Lo
			if n < 1 {
				t.Fatalf("NewPlan(%d, %d): empty span %+v", tc.cells, tc.tiles, s)
			}
			minLen = min(minLen, n)
			maxLen = max(maxLen, n)
			next = s.Hi
		}
		if next != tc.cells {
			t.Fatalf("NewPlan(%d, %d): spans end at %d, want %d", tc.cells, tc.tiles, next, tc.cells)
		}
		if maxLen-minLen > 1 {
			t.Fatalf("NewPlan(%d, %d): unbalanced spans (min %d, max %d)", tc.cells, tc.tiles, minLen, maxLen)
		}
	}
}

func TestNewPlanEmpty(t *testing.T) {
	if p := NewPlan(0, 4); len(p.Spans) != 0 {
		t.Fatalf("NewPlan(0, 4) = %+v, want empty", p)
	}
}
