package mobility

import "jabasd/internal/checkpoint"

// Persist writes or reads every user's mutable waypoint state in
// PersistUser's layout, after the user count. The region and speed bounds
// are construction parameters. Reading restores into the existing batch,
// which must have the stored user count.
func (b *WaypointBatch) Persist(c *checkpoint.Codec) {
	n := len(b.src)
	c.Int(&n)
	if n != len(b.src) {
		c.Fail("waypoint batch has %d users, checkpoint %d", len(b.src), n)
		return
	}
	for i := range b.src {
		b.PersistUser(c, i)
	}
}

// PersistUser writes or reads user i's mutable waypoint state: draw
// stream, position, destination, speed, remaining pause and travel flag.
func (b *WaypointBatch) PersistUser(c *checkpoint.Codec, i int) {
	b.src[i].Persist(c)
	c.F64(&b.pos[i].X)
	c.F64(&b.pos[i].Y)
	c.F64(&b.dest[i].X)
	c.F64(&b.dest[i].Y)
	c.F64(&b.speed[i])
	c.F64(&b.pause[i])
	c.Bool(&b.travelling[i])
}
