// Package fault defines the deterministic fault-injection schedule the
// simulator can run under: piecewise cell events (full outages and
// transmit-power deratings with a recovery time) and piecewise load events
// (mean reading-time changes: the single offered-load step of experiment
// E12, day/night curves and flash crowds). A schedule is pure data —
// validated, JSON-serialisable, and evaluated frame by frame as a pure
// function of simulated time — so every consumer (the engine's admission
// paths, the checkpoint layer, the sweep axis, the experiments) sees
// exactly the same event timeline and the simulator's byte-identical
// determinism guarantees extend through outage frames unchanged.
package fault

import (
	"errors"
	"fmt"
	"sort"
)

// CellEvent is one cell-level fault: between StartSec (inclusive) and
// EndSec (exclusive) the cell is out of service (Derate == 0) or degraded
// to Derate x its forward power budget (0 < Derate < 1). An out-of-service
// cell issues no grants and is excluded from pilot/active-set search; a
// degraded cell keeps serving with the reduced budget.
type CellEvent struct {
	// Cell is the faulted cell's index in the layout.
	Cell int `json:"cell"`
	// StartSec/EndSec bound the fault in simulated seconds; the cell
	// recovers at EndSec. EndSec may exceed the run's SimTime (the fault
	// then lasts to the end), but StartSec must fall inside the run.
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
	// Derate is the fraction of the forward power budget left to the cell
	// while the event is active: 0 (the default) means full outage, values
	// in (0, 1) mean degraded service.
	Derate float64 `json:"derate,omitempty"`
}

// Outage reports whether the event takes the cell fully out of service.
func (ev CellEvent) Outage() bool { return ev.Derate == 0 }

// active reports whether the event covers simulated time t.
func (ev CellEvent) active(t float64) bool { return t >= ev.StartSec && t < ev.EndSec }

// LoadEvent is one step of a piecewise offered-load curve: at AtSec every
// data source switches its mean reading (think) time to ReadingTimeSec on
// the first frame at or after AtSec (the remaining think time is rescaled,
// so the step takes effect immediately). A descending sequence of reading
// times models a flash crowd building; an alternating one models a
// day/night curve.
type LoadEvent struct {
	AtSec          float64 `json:"at_sec"`
	ReadingTimeSec float64 `json:"reading_time_sec"`
}

// Schedule is a complete fault-injection timetable. The zero value (or nil)
// injects nothing.
type Schedule struct {
	// Cells holds the cell outage/derate events. Events on the same cell
	// must not overlap; events on different cells may.
	Cells []CellEvent `json:"cells,omitempty"`
	// Load holds the offered-load curve, in strictly ascending AtSec order.
	Load []LoadEvent `json:"load,omitempty"`
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Cells) == 0 && len(s.Load) == 0)
}

// Validate checks the schedule against a layout of numCells cells and a run
// of simTimeSec simulated seconds. Every violation is reported, joined into
// one error, matching sim.Config.Validate's all-errors style.
func (s *Schedule) Validate(numCells int, simTimeSec float64) error {
	if s == nil {
		return nil
	}
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("fault: "+format, args...))
	}
	// Per-cell overlap detection wants events in start order without
	// mutating the caller's schedule.
	byCell := make(map[int][]CellEvent, len(s.Cells))
	for i, ev := range s.Cells {
		if ev.Cell < 0 || ev.Cell >= numCells {
			fail("cell event %d names unknown cell %d (layout has %d cells)", i, ev.Cell, numCells)
			continue
		}
		if ev.StartSec < 0 || ev.EndSec <= ev.StartSec {
			fail("cell event %d has invalid window [%g, %g) (want 0 <= start < end)", i, ev.StartSec, ev.EndSec)
			continue
		}
		if ev.StartSec >= simTimeSec {
			fail("cell event %d starts at %gs, past the run's SimTime %gs", i, ev.StartSec, simTimeSec)
			continue
		}
		if ev.Derate < 0 || ev.Derate >= 1 {
			fail("cell event %d has derate %g (want 0 for outage or (0,1) for degraded)", i, ev.Derate)
			continue
		}
		byCell[ev.Cell] = append(byCell[ev.Cell], ev)
	}
	for cell, evs := range byCell {
		sort.Slice(evs, func(a, b int) bool { return evs[a].StartSec < evs[b].StartSec })
		for i := 1; i < len(evs); i++ {
			if evs[i].StartSec < evs[i-1].EndSec {
				fail("cell %d has overlapping events: [%g, %g) and [%g, %g)",
					cell, evs[i-1].StartSec, evs[i-1].EndSec, evs[i].StartSec, evs[i].EndSec)
			}
		}
	}
	for i, le := range s.Load {
		if le.AtSec < 0 || le.AtSec >= simTimeSec {
			fail("load event %d applies at %gs, outside [0, SimTime=%gs)", i, le.AtSec, simTimeSec)
		}
		if le.ReadingTimeSec <= 0 {
			fail("load event %d has non-positive reading time %gs", i, le.ReadingTimeSec)
		}
		if i > 0 && le.AtSec <= s.Load[i-1].AtSec {
			fail("load events must be in strictly ascending AtSec order (event %d at %gs after %gs)",
				i, le.AtSec, s.Load[i-1].AtSec)
		}
	}
	return errors.Join(errs...)
}

// State evaluates a schedule frame by frame: Advance recomputes the
// per-cell Down/Derate view for a simulated time and reports mask changes,
// and NextLoad hands out due load events exactly once each. The per-cell
// view is a pure function of time; only the load-event cursor is stateful
// (applying a reading-time change rescales live traffic-source state, so it
// must happen exactly once — the cursor is what a checkpoint carries, see
// LoadCursor/SetLoadCursor).
type State struct {
	sched *Schedule

	// Down[k] is true while cell k is fully out of service; Derate[k] is
	// the fraction of its forward power budget available (1 when healthy, 0
	// while down). Valid after the first Advance.
	Down   []bool
	Derate []float64

	prevDown []bool
	loadIdx  int
}

// NewState returns an evaluator for the schedule over numCells cells. The
// schedule may be nil/empty; Advance then never reports a change.
func NewState(s *Schedule, numCells int) *State {
	st := &State{
		sched:    s,
		Down:     make([]bool, numCells),
		Derate:   make([]float64, numCells),
		prevDown: make([]bool, numCells),
	}
	for k := range st.Derate {
		st.Derate[k] = 1
	}
	return st
}

// Advance recomputes Down/Derate for simulated time now and reports whether
// the down-mask changed since the previous Advance (the engine uses the
// change signal to force paused users to re-measure). The first Advance
// reports a change only if some cell starts down.
func (st *State) Advance(now float64) (changed bool) {
	copy(st.prevDown, st.Down)
	for k := range st.Down {
		st.Down[k] = false
		st.Derate[k] = 1
	}
	if st.sched != nil {
		for _, ev := range st.sched.Cells {
			if !ev.active(now) {
				continue
			}
			if ev.Outage() {
				st.Down[ev.Cell] = true
				st.Derate[ev.Cell] = 0
			} else {
				st.Derate[ev.Cell] = ev.Derate
			}
		}
	}
	for k := range st.Down {
		if st.Down[k] != st.prevDown[k] {
			return true
		}
	}
	return false
}

// AnyDown reports whether any cell is out of service at the last Advance.
func (st *State) AnyDown() bool {
	for _, d := range st.Down {
		if d {
			return true
		}
	}
	return false
}

// NextLoad returns the next unapplied load event due at or before now and
// advances the cursor past it; ok is false when none is due. Call in a loop
// to drain multiple events falling into one frame.
func (st *State) NextLoad(now float64) (ev LoadEvent, ok bool) {
	if st.sched == nil || st.loadIdx >= len(st.sched.Load) {
		return LoadEvent{}, false
	}
	next := st.sched.Load[st.loadIdx]
	if now < next.AtSec {
		return LoadEvent{}, false
	}
	st.loadIdx++
	return next, true
}

// LoadCursor returns the number of load events already applied — the one
// piece of State a checkpoint must carry (re-applying an event would rescale
// restored traffic-source state a second time).
func (st *State) LoadCursor() int { return st.loadIdx }

// SetLoadCursor restores the load-event cursor from a checkpoint. Out-of-
// range values are rejected so a corrupt checkpoint cannot fast-forward the
// curve.
func (st *State) SetLoadCursor(idx int) error {
	n := 0
	if st.sched != nil {
		n = len(st.sched.Load)
	}
	if idx < 0 || idx > n {
		return fmt.Errorf("fault: load cursor %d outside schedule's 0..%d", idx, n)
	}
	st.loadIdx = idx
	return nil
}
