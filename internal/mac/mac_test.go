package mac

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{T2: -1, T3: 5, D1: 0, D2: 1},
		{T2: 5, T3: 2, D1: 0, D2: 1},
		{T2: 1, T3: 5, D1: -1, D2: 1},
		{T2: 1, T3: 5, D1: 2, D2: 1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d should be invalid: %+v", i, c)
		}
	}
}

func TestSetupDelayThresholds(t *testing.T) {
	c := DefaultConfig() // T2=2, T3=10, D1=0.1, D2=1
	cases := []struct{ wait, want float64 }{
		{0, 0}, {1.99, 0}, {2, 0.1}, {5, 0.1}, {9.99, 0.1}, {10, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.SetupDelay(tc.wait); got != tc.want {
			t.Errorf("SetupDelay(%v) = %v, want %v", tc.wait, got, tc.want)
		}
	}
}

func TestOverallDelay(t *testing.T) {
	c := DefaultConfig()
	if got := c.OverallDelay(1); got != 1 {
		t.Errorf("OverallDelay(1) = %v", got)
	}
	if got := c.OverallDelay(3); got != 3.1 {
		t.Errorf("OverallDelay(3) = %v", got)
	}
	if got := c.OverallDelay(20); got != 21 {
		t.Errorf("OverallDelay(20) = %v", got)
	}
}

func TestOverallDelayMonotoneProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(a, b float64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		if a > b {
			a, b = b, a
		}
		return c.OverallDelay(a) <= c.OverallDelay(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateForWait(t *testing.T) {
	c := DefaultConfig()
	if c.StateForWait(1) != Active {
		t.Error("short waits should stay Active")
	}
	if c.StateForWait(5) != ControlHold {
		t.Error("medium waits should be ControlHold")
	}
	if c.StateForWait(50) != Suspended {
		t.Error("long waits should be Suspended")
	}
}

func TestMachineLifecycle(t *testing.T) {
	m := MustNewMachine(DefaultConfig())
	if m.state != Active {
		t.Error("new machine should be Active")
	}
	m.Touch(0)
	if got := m.AdvanceTo(1); got != Active {
		t.Errorf("state after 1 s idle = %v", got)
	}
	if got := m.AdvanceTo(3); got != ControlHold {
		t.Errorf("state after 3 s idle = %v", got)
	}
	if got := m.AdvanceTo(15); got != Suspended {
		t.Errorf("state after 15 s idle = %v", got)
	}
	if d := m.SetupDelayNow(15); d != 1.0 {
		t.Errorf("SetupDelayNow = %v, want 1.0", d)
	}
	if m.idleSince != 0 {
		t.Errorf("idle since %v, want 0", m.idleSince)
	}
	// Activity resets everything.
	m.Touch(20)
	if m.state != Active || m.SetupDelayNow(20.5) != 0 || m.idleSince != 20 {
		t.Error("Touch should reset idle timer and state")
	}
	// Time running backwards is ignored.
	st := m.state
	if got := m.AdvanceTo(19); got != st {
		t.Error("backwards time should not change state")
	}
	if m.SetupDelayNow(10) != 0 {
		t.Error("SetupDelayNow before idleSince should be 0")
	}
}

func TestNewMachineRejectsBadConfig(t *testing.T) {
	if _, err := NewMachine(Config{T2: 5, T3: 1}); err == nil {
		t.Error("expected error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewMachine should panic on bad config")
		}
	}()
	MustNewMachine(Config{T2: 5, T3: 1})
}

func TestSetupDelayMatchesStateSemantics(t *testing.T) {
	// The set-up delay implied by the waiting time must agree with the state
	// the machine decays to: Active -> 0, ControlHold -> D1, Suspended -> D2.
	c := DefaultConfig()
	f := func(w float64) bool {
		if w < 0 {
			w = -w
		}
		d := c.SetupDelay(w)
		switch c.StateForWait(w) {
		case Active:
			return d == 0
		case ControlHold:
			return d == c.D1
		default:
			return d == c.D2
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
