// Package mac implements the cdma2000 packet-data MAC state machine of the
// paper's Figure 3 and the set-up delay penalty of equations (22)-(23): a
// data user whose burst request waits too long falls from the Active state
// through Control-Hold into Suspended/Dormant, and re-establishing the
// dedicated channels from those states adds a fixed set-up delay (D1 or D2)
// to the burst's overall request delay w_j = t_w + D_s.
package mac

import "errors"

// State is a cdma2000 packet-data MAC state.
type State int

const (
	// Active: dedicated traffic and control channels are up; a burst can
	// start at the next frame boundary with no extra set-up delay.
	Active State = iota
	// ControlHold: the dedicated control channel is maintained but the
	// traffic channel has been released; resuming costs D1.
	ControlHold
	// Suspended: only the state information is kept; both channels must be
	// re-established, costing D2.
	Suspended
	// Dormant: everything has been torn down; a full origination is needed,
	// also costing D2 in the paper's two-level penalty model.
	Dormant
)

// Config holds the MAC timers and set-up penalties. T2 and T3 are the
// waiting-time thresholds of equation (23): a request that has waited less
// than T2 pays no set-up delay, one that has waited in [T2, T3) pays D1, and
// one that has waited at least T3 pays D2.
type Config struct {
	T2 float64 // seconds before falling out of Active (Control-Hold timer)
	T3 float64 // seconds before falling into Suspended/Dormant
	D1 float64 // set-up delay to resume from Control-Hold (seconds)
	D2 float64 // set-up delay to resume from Suspended/Dormant (seconds)
}

// DefaultConfig returns the timer values used in the experiments: 2 s to
// Control-Hold, 10 s to Suspended, 0.1 s and 1.0 s set-up penalties
// (representative cdma2000 channel set-up times).
func DefaultConfig() Config {
	return Config{T2: 2, T3: 10, D1: 0.1, D2: 1.0}
}

// Validate reports whether the configuration is consistent.
func (c Config) Validate() error {
	if c.T2 < 0 || c.T3 < c.T2 {
		return errors.New("mac: require 0 <= T2 <= T3")
	}
	if c.D1 < 0 || c.D2 < c.D1 {
		return errors.New("mac: require 0 <= D1 <= D2")
	}
	return nil
}

// SetupDelay returns the MAC set-up delay penalty D_s for a request that has
// been waiting for waitingTime seconds (equation 23).
func (c Config) SetupDelay(waitingTime float64) float64 {
	switch {
	case waitingTime < c.T2:
		return 0
	case waitingTime < c.T3:
		return c.D1
	default:
		return c.D2
	}
}

// OverallDelay returns the overall request delay w_j = t_w + D_s of
// equation (22).
func (c Config) OverallDelay(waitingTime float64) float64 {
	return waitingTime + c.SetupDelay(waitingTime)
}

// StateForWait returns the MAC state a data user has decayed to after
// waiting for waitingTime seconds without being served.
func (c Config) StateForWait(waitingTime float64) State {
	switch {
	case waitingTime < c.T2:
		return Active
	case waitingTime < c.T3:
		return ControlHold
	default:
		return Suspended
	}
}

// Machine tracks the MAC state of one data user over simulated time.
type Machine struct {
	cfg       Config
	state     State
	idleSince float64
	lastTime  float64
}

// NewMachine creates a machine in the Active state at time 0.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, state: Active}, nil
}

// MustNewMachine is NewMachine but panics on configuration errors.
func MustNewMachine(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Touch records activity (data transmitted or burst granted) at time now:
// the user moves to (or stays in) Active and the idle timer restarts.
func (m *Machine) Touch(now float64) {
	m.state = Active
	m.idleSince = now
	m.lastTime = now
}

// AdvanceTo updates the state to reflect the idle time accumulated by time
// now and returns the resulting state.
func (m *Machine) AdvanceTo(now float64) State {
	if now < m.lastTime {
		return m.state // time cannot run backwards; ignore
	}
	m.lastTime = now
	idle := now - m.idleSince
	switch {
	case idle < m.cfg.T2:
		m.state = Active
	case idle < m.cfg.T3:
		m.state = ControlHold
	default:
		m.state = Suspended
	}
	return m.state
}

// SetupDelayNow returns the set-up delay a burst grant issued at time now
// would incur given the user's current idle time.
func (m *Machine) SetupDelayNow(now float64) float64 {
	if now < m.idleSince {
		return 0
	}
	return m.cfg.SetupDelay(now - m.idleSince)
}
