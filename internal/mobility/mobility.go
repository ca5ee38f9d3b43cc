// Package mobility implements the random waypoint model driving the dynamic
// simulation's users: each picks a destination in the rectangular service
// area and a speed, travels there in a straight line, pauses, and repeats.
// A user therefore never leaves the area; wrap-around distances are the
// cellular layout's concern, not the mobility model's. WaypointBatch runs
// the model for many users at once; the engine keeps one batch for its data
// users and one for its voice users.
package mobility

import (
	"jabasd/internal/cellular"
	"jabasd/internal/rng"
)

// Region describes the rectangular service area [0,W) x [0,H).
type Region struct {
	Width, Height float64
}

// WaypointBatch holds the random-waypoint state of many users in
// structure-of-arrays form: the positions, destinations, speeds and pause
// clocks live in parallel slices, with one value-typed rng.Source per user,
// instead of one heap object per user.
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
// seconds. A negative minSpeed is raised to 0 and a maxSpeed below minSpeed
// to minSpeed. Every user must be seeded with SeedUser before stepping.
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

// SeedUser initialises user i from src: it draws the initial position,
// then the first destination and speed. The source is copied by value into
// the batch.
func (b *WaypointBatch) SeedUser(i int, src *rng.Source) {
	b.src[i] = *src
	r := &b.src[i]
	b.pos[i] = cellular.Point{X: r.Uniform(0, b.region.Width), Y: r.Uniform(0, b.region.Height)}
	b.pickDestination(i)
}

// pickDestination draws user i's next destination and travel speed.
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

// Advance moves user i by dt seconds and returns the distance travelled.
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
