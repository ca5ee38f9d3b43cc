package mobility

import (
	"math"
	"testing"

	"jabasd/internal/rng"
)

var region = Region{Width: 5000, Height: 4000}

func TestRandomWaypointStaysInRegion(t *testing.T) {
	src := rng.New(1)
	m := NewRandomWaypoint(src, region, 1, 20, 5)
	for i := 0; i < 10000; i++ {
		m.Advance(1)
		p := m.Position()
		if p.X < 0 || p.X > region.Width || p.Y < 0 || p.Y > region.Height {
			t.Fatalf("position out of region: %+v", p)
		}
	}
}

func TestRandomWaypointTravelledMatchesSpeed(t *testing.T) {
	src := rng.New(2)
	m := NewRandomWaypoint(src, region, 10, 10, 0) // fixed speed, no pause
	total := 0.0
	for i := 0; i < 1000; i++ {
		total += m.Advance(0.5)
	}
	// With no pauses and fixed speed 10 m/s over 500 s, distance = 5000 m.
	if math.Abs(total-5000) > 1 {
		t.Errorf("travelled %v m, want ~5000", total)
	}
}

func TestRandomWaypointSpeedBounds(t *testing.T) {
	src := rng.New(3)
	m := NewRandomWaypoint(src, region, 3, 14, 2)
	for i := 0; i < 5000; i++ {
		m.Advance(0.7)
		if s := m.speed; m.travelling && (s < 3 || s > 14) {
			t.Fatalf("speed out of bounds: %v", s)
		}
	}
}

func TestRandomWaypointPauses(t *testing.T) {
	src := rng.New(4)
	m := NewRandomWaypoint(src, region, 5, 5, 10)
	sawPause := false
	for i := 0; i < 20000 && !sawPause; i++ {
		m.Advance(0.5)
		if !m.travelling {
			sawPause = true
		}
	}
	if !sawPause {
		t.Error("random waypoint user never paused")
	}
}

func TestRandomWaypointDegenerateSpeed(t *testing.T) {
	src := rng.New(5)
	m := NewRandomWaypoint(src, region, 0, 0, 0)
	p0 := m.Position()
	if d := m.Advance(100); d != 0 {
		t.Errorf("zero-speed user travelled %v", d)
	}
	if m.Position() != p0 {
		t.Error("zero-speed user moved")
	}
	// Negative/backwards parameter handling.
	m2 := NewRandomWaypoint(rng.New(6), region, -5, -10, 0)
	m2.Advance(1)
	if m2.speed < 0 {
		t.Error("speed should never be negative")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	mk := func() *RandomWaypoint {
		return NewRandomWaypoint(rng.New(77), region, 1, 20, 5)
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		a.Advance(0.5)
		b.Advance(0.5)
		if a.Position() != b.Position() {
			t.Fatal("same seed produced different trajectories")
		}
	}
}
