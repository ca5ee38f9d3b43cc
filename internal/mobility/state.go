package mobility

import "jabasd/internal/checkpoint"

// Persist writes or reads every user's mutable waypoint state: draw
// stream, position, destination, speed, remaining pause and travel flag.
// The region and speed bounds are construction parameters. Reading
// restores into the existing batch, which must have the stored user count.
func (b *WaypointBatch) Persist(c *checkpoint.Codec) {
	n := len(b.src)
	c.Int(&n)
	if n != len(b.src) {
		c.Fail("waypoint batch has %d users, checkpoint %d", len(b.src), n)
		return
	}
	for i := range b.src {
		b.src[i].Persist(c)
		c.F64(&b.pos[i].X)
		c.F64(&b.pos[i].Y)
		c.F64(&b.dest[i].X)
		c.F64(&b.dest[i].Y)
		c.F64(&b.speed[i])
		c.F64(&b.pause[i])
		c.Bool(&b.travelling[i])
	}
}

// Persist writes or reads the scalar waypoint model's mutable state (the
// voice users' mobility) in WaypointBatch.Persist's per-user layout.
func (m *RandomWaypoint) Persist(c *checkpoint.Codec) {
	m.src.Persist(c)
	c.F64(&m.pos.X)
	c.F64(&m.pos.Y)
	c.F64(&m.dest.X)
	c.F64(&m.dest.Y)
	c.F64(&m.speed)
	c.F64(&m.pause)
	c.Bool(&m.travelling)
}
