package mac

import "jabasd/internal/checkpoint"

// Persist writes or reads the machine's mutable state (the configuration
// is rebuilt from the scenario, not serialized). Reading refuses a state
// outside Active..Dormant.
func (m *Machine) Persist(c *checkpoint.Codec) {
	s := int(m.state)
	c.Int(&s)
	if c.Reading() {
		if State(s) < Active || State(s) > Dormant {
			c.Fail("invalid MAC state %d", s)
			return
		}
		m.state = State(s)
	}
	c.F64(&m.idleSince)
	c.F64(&m.lastTime)
}
