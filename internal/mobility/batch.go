package mobility

import (
	"jabasd/internal/cellular"
	"jabasd/internal/rng"
)

// WaypointBatch is the structure-of-arrays form of RandomWaypoint: the
// positions, destinations, speeds and pause clocks of many users live in
// parallel slices (with one value-typed rng.Source per user) instead of one
// heap object per user. Seeded with SeedUser from the same substream a
// per-user NewRandomWaypoint would receive, every step draws and moves in
// the identical order, so trajectories are bit-for-bit the same as the
// scalar model's.
type WaypointBatch struct {
	region   Region
	minSpeed float64
	maxSpeed float64
	maxPause float64

	src        []rng.Source
	pos        []cellular.Point
	dest       []cellular.Point
	speed      []float64
	pause      []float64
	travelling []bool
}

// NewWaypointBatch allocates a batch of n random-waypoint users with speeds
// drawn uniformly from [minSpeed, maxSpeed] m/s and pauses up to maxPause
// seconds, applying the same parameter clamps as NewRandomWaypoint. Every
// user must be seeded with SeedUser before stepping.
func NewWaypointBatch(region Region, minSpeed, maxSpeed, maxPause float64, n int) *WaypointBatch {
	if minSpeed < 0 {
		minSpeed = 0
	}
	if maxSpeed < minSpeed {
		maxSpeed = minSpeed
	}
	return &WaypointBatch{
		region:     region,
		minSpeed:   minSpeed,
		maxSpeed:   maxSpeed,
		maxPause:   maxPause,
		src:        make([]rng.Source, n),
		pos:        make([]cellular.Point, n),
		dest:       make([]cellular.Point, n),
		speed:      make([]float64, n),
		pause:      make([]float64, n),
		travelling: make([]bool, n),
	}
}

// SeedUser initialises user i from src with the same draw order as
// NewRandomWaypoint: initial position, then the first destination and speed.
// The source is copied by value into the batch.
func (b *WaypointBatch) SeedUser(i int, src *rng.Source) {
	b.src[i] = *src
	r := &b.src[i]
	b.pos[i] = cellular.Point{X: r.Uniform(0, b.region.Width), Y: r.Uniform(0, b.region.Height)}
	b.pickDestination(i)
}

// pickDestination mirrors RandomWaypoint.pickDestination.
func (b *WaypointBatch) pickDestination(i int) {
	r := &b.src[i]
	b.dest[i] = cellular.Point{X: r.Uniform(0, b.region.Width), Y: r.Uniform(0, b.region.Height)}
	if b.maxSpeed <= 0 {
		b.speed[i] = 0
	} else {
		b.speed[i] = r.Uniform(b.minSpeed, b.maxSpeed)
		if b.speed[i] <= 0 {
			b.speed[i] = b.maxSpeed
		}
	}
	b.travelling[i] = true
}

// Position returns user i's current position.
func (b *WaypointBatch) Position(i int) cellular.Point { return b.pos[i] }

// Advance moves user i by dt seconds and returns the distance travelled,
// with the identical step/pause logic as RandomWaypoint.Advance.
func (b *WaypointBatch) Advance(i int, dt float64) float64 {
	travelled := 0.0
	for dt > 0 {
		if !b.travelling[i] {
			if b.pause[i] >= dt {
				b.pause[i] -= dt
				return travelled
			}
			dt -= b.pause[i]
			b.pause[i] = 0
			b.pickDestination(i)
			continue
		}
		if b.speed[i] <= 0 {
			// Degenerate zero-speed user never reaches its destination.
			return travelled
		}
		toGo := b.pos[i].Dist(b.dest[i])
		stepTime := toGo / b.speed[i]
		if stepTime > dt {
			frac := b.speed[i] * dt / toGo
			b.pos[i] = b.pos[i].Add(b.dest[i].Sub(b.pos[i]).Scale(frac))
			travelled += b.speed[i] * dt
			return travelled
		}
		// Reach the destination and start a pause.
		b.pos[i] = b.dest[i]
		travelled += toGo
		dt -= stepTime
		b.travelling[i] = false
		b.pause[i] = b.src[i].Uniform(0, b.maxPause)
	}
	return travelled
}
