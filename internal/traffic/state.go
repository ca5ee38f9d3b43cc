package traffic

import "jabasd/internal/checkpoint"

// Persist writes or reads the voice source's mutable state: the on/off
// phase, its remaining duration and the draw stream. The mean durations are
// construction parameters, rebuilt from the scenario.
func (v *VoiceModel) Persist(c *checkpoint.Codec) {
	c.Bool(&v.activityOn)
	c.F64(&v.timeLeft)
	v.src.Persist(c)
}

// Persist writes or reads the data source's mutable state: think phase,
// pending request (by value — the engine's queues hold it by pointer, so
// the engine re-queues it on restore), the one runtime-mutable config
// field (a fault-schedule load event rescales the mean reading time
// mid-run) and the draw stream. Reading rebuilds a present pending request
// as a fresh value carrying the model's own user id; Pending exposes it so
// the caller can re-queue it.
func (d *DataModel) Persist(c *checkpoint.Codec) {
	c.Bool(&d.thinking)
	c.F64(&d.thinkLeft)
	c.F64(&d.cfg.MeanReadingTimeSec)
	has := d.pending != nil
	c.Bool(&has)
	if c.Reading() {
		d.pending = nil
		if has {
			d.pending = &BurstRequest{UserID: d.userID}
		}
	}
	if has {
		c.F64(&d.pending.SizeBits)
		c.F64(&d.pending.ArrivalTime)
		c.F64(&d.pending.Priority)
	}
	d.src.Persist(c)
}
