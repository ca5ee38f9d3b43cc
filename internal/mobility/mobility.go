// Package mobility implements the random waypoint model driving the dynamic
// simulation's users: each picks a destination in the rectangular service
// area and a speed, travels there in a straight line, pauses, and repeats.
// A user therefore never leaves the area; wrap-around distances are the
// cellular layout's concern, not the mobility model's. RandomWaypoint is
// the scalar model (the voice users) and WaypointBatch the same process for
// every data user at once.
package mobility

import (
	"jabasd/internal/cellular"
	"jabasd/internal/rng"
)

// Region describes the rectangular service area [0,W) x [0,H).
type Region struct {
	Width, Height float64
}

// RandomWaypoint implements the random waypoint mobility model.
type RandomWaypoint struct {
	region     Region
	src        *rng.Source
	pos        cellular.Point
	dest       cellular.Point
	speed      float64
	pause      float64 // remaining pause time
	minSpeed   float64
	maxSpeed   float64
	maxPause   float64
	travelling bool
}

// NewRandomWaypoint creates a random waypoint user with speeds drawn
// uniformly from [minSpeed, maxSpeed] m/s and pauses up to maxPause seconds.
func NewRandomWaypoint(src *rng.Source, region Region, minSpeed, maxSpeed, maxPause float64) *RandomWaypoint {
	if minSpeed < 0 {
		minSpeed = 0
	}
	if maxSpeed < minSpeed {
		maxSpeed = minSpeed
	}
	m := &RandomWaypoint{
		region:   region,
		src:      src,
		minSpeed: minSpeed,
		maxSpeed: maxSpeed,
		maxPause: maxPause,
	}
	m.pos = cellular.Point{X: src.Uniform(0, region.Width), Y: src.Uniform(0, region.Height)}
	m.pickDestination()
	return m
}

func (m *RandomWaypoint) pickDestination() {
	m.dest = cellular.Point{X: m.src.Uniform(0, m.region.Width), Y: m.src.Uniform(0, m.region.Height)}
	if m.maxSpeed <= 0 {
		m.speed = 0
	} else {
		m.speed = m.src.Uniform(m.minSpeed, m.maxSpeed)
		if m.speed <= 0 {
			m.speed = m.maxSpeed
		}
	}
	m.travelling = true
}

// Position returns the current position.
func (m *RandomWaypoint) Position() cellular.Point { return m.pos }

// Advance moves the user by dt seconds and returns the distance travelled.
func (m *RandomWaypoint) Advance(dt float64) float64 {
	travelled := 0.0
	for dt > 0 {
		if !m.travelling {
			if m.pause >= dt {
				m.pause -= dt
				return travelled
			}
			dt -= m.pause
			m.pause = 0
			m.pickDestination()
			continue
		}
		if m.speed <= 0 {
			// Degenerate zero-speed user never reaches its destination.
			return travelled
		}
		toGo := m.pos.Dist(m.dest)
		stepTime := toGo / m.speed
		if stepTime > dt {
			frac := m.speed * dt / toGo
			m.pos = m.pos.Add(m.dest.Sub(m.pos).Scale(frac))
			travelled += m.speed * dt
			return travelled
		}
		// Reach the destination and start a pause.
		m.pos = m.dest
		travelled += toGo
		dt -= stepTime
		m.travelling = false
		m.pause = m.src.Uniform(0, m.maxPause)
	}
	return travelled
}
