package sim

// Fault injection (Config.Faults != nil): cell outages, transmit-power
// derating and offered-load curves evaluated per frame from the piecewise
// schedule in internal/fault. The engine consumes the schedule through a
// handful of hooks, all on its sequential sections or on read-only state,
// so every determinism guarantee survives:
//
//   - applyFaults (start of step) advances the fault state to the frame's
//     time, drains due load events into the traffic sources, and counts
//     outage cell-frames. The down mask and derate vector are immutable for
//     the rest of the frame, so the parallel update/solve phases read them
//     freely.
//   - Out-of-service cells are excluded from the pilot search (refreshPilots
//     hands the pilot kernels the down mask from downMask), so users
//     re-pilot to the surviving SCRM neighbours and their FCH load and new
//     burst requests spill onto those cells. If every cell of a user's
//     window is down the kernels measure them all as if none were — a
//     coverage hole; its cell issues no grants until recovery.
//   - Paused users (the zero-travel shortcuts) re-derive their pilot sets
//     from their unchanged gains on frames where the down mask changed —
//     the channel state and every RNG stream are left exactly as the
//     shortcut leaves them, so a no-fault schedule stays bit-identical.
//   - migrateQueued (sequential, before traffic generation) moves burst
//     requests still queued at a down cell to the owner's re-piloted host
//     cell, counting each move as a spillover hand-off.
//   - Admission skips down cells entirely (no grants, no solves); degraded
//     cells solve against a derated forward power budget.
//
// Interference sums deliberately still include down cells' nominal
// transmit activity, and in-flight bursts granted before an outage run to
// completion (macro-diversity continuation): both keep the fault hooks out
// of the hot physics kernels and make a schedule with no active events
// byte-identical to no schedule at all.

import (
	"jabasd/internal/cellular"
	"jabasd/internal/fault"
)

// applyFaults advances the fault schedule to the frame's time: recomputes
// the down/derate state, flags whether the down mask changed (paused users
// and voice re-pilot on those frames), applies due load events to every
// traffic source, and counts outage cell-frames. Runs first in step so the
// whole frame sees one consistent mask.
func (e *Engine) applyFaults() {
	if e.fault == nil {
		return
	}
	e.faultDirty = e.fault.Advance(e.now)
	e.anyDown = e.fault.AnyDown()
	if e.anyDown {
		for _, down := range e.fault.Down {
			if down {
				e.metrics.OutageCellFrames++
			}
		}
	}
	for {
		ev, ok := e.fault.NextLoad(e.now)
		if !ok {
			break
		}
		for _, u := range e.users {
			u.source.SetMeanReadingTime(ev.ReadingTimeSec)
		}
	}
}

// cellDown reports whether cell k is out of service this frame.
func (e *Engine) cellDown(k int) bool {
	return e.fault != nil && e.fault.Down[k]
}

// downMask returns the per-cell out-of-service mask the pilot kernels skip,
// nil when every cell is in service this frame. The kernels fall back to
// measuring every cell of a window whose cells are all down: the user is in
// a coverage hole and stays camped on a dead cell, which issues no grants.
func (e *Engine) downMask() []bool {
	if !e.anyDown {
		return nil
	}
	return e.fault.Down
}

// migrateQueued moves burst requests still queued at an out-of-service
// cell to their owner's re-piloted host cell. Runs sequentially between
// the user updates (which moved the host cells off dead cells) and traffic
// generation, so a migrated request competes for admission at its new cell
// in the same frame. Requests whose owner has no surviving cell stay put;
// requests already granted (their burst is in flight) are not queued and
// are left alone.
func (e *Engine) migrateQueued() {
	if e.fault == nil || !e.anyDown {
		return
	}
	for _, u := range e.users {
		req := u.queuedReq
		if req == nil || !e.fault.Down[u.queuedCell] {
			continue
		}
		if u.hostCell == u.queuedCell || e.fault.Down[u.hostCell] {
			continue
		}
		if !e.queues[u.queuedCell].Remove(req) {
			continue // in-flight burst, not a queued request
		}
		e.queues[u.hostCell].Push(req)
		u.queuedCell = u.hostCell
		e.metrics.SpilloverHandoffs++
		if e.traceCells != nil {
			e.traceCells[u.hostCell].spill++
		}
	}
}

// nearestUpCell returns the in-service cell nearest to pos, or down if
// every cell is out of service. The exact reference path compares metre
// distances, the fast path squared distances, both with the lowest-index
// tie-break — mirroring the two NearestCell kernels so a voice user's
// re-homed cell is the one the unfaulted search would pick among survivors.
func (e *Engine) nearestUpCell(pos cellular.Point, down int) int {
	best, bestD := down, 0.0
	for k := 0; k < e.layout.NumCells(); k++ {
		if e.fault.Down[k] {
			continue
		}
		var d float64
		if e.cfg.ExactPHY {
			d = e.layout.Distance(pos, k)
		} else {
			d = e.layout.DistanceSq(pos, k)
		}
		if best == down || d < bestD {
			best, bestD = k, d
		}
	}
	return best
}

// newFaultState builds the engine's fault runtime for the configuration,
// nil when no schedule (or an empty one) is configured — the nil check is
// what keeps every fault hook out of the fault-free hot path.
func newFaultState(cfg Config, numCells int) *fault.State {
	if cfg.Faults == nil || cfg.Faults.Empty() {
		return nil
	}
	return fault.NewState(cfg.Faults, numCells)
}
