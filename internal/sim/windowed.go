package sim

// Windowed physics (Config.PilotCells > 0): instead of tracking channel
// state to every base station — O(users x cells) memory and per-frame work,
// untenable at city scale — each data user tracks only the candidate window
// of its current spatial bucket (internal/spatial), retargeting the window
// when it crosses into a bucket with a different candidate list
// (channel.Window carries the shadowing state of cells that stay). All
// downstream admission code is untouched: pilots, active and reduced sets
// carry global cell indices exactly as before; only the gain lookups here
// go through the slot map, and each pilot entry carries its window slot —
// rebuilt when the window retargets and on checkpoint restore — so those
// lookups need no search. When the window covers every cell (PilotCells >=
// the cell count) the candidate list is the identity, Retarget no-ops after
// the first frame and the arithmetic — including the order of the Io and
// interference summations — is bit-identical to the full-scan paths, which
// TestWindowedFullWidthIdentity locks in.

import (
	"fmt"
	"math"
	"slices"

	"jabasd/internal/cellular"
	"jabasd/internal/mathx"
)

// retargetWindow points user u's channel window at its position's bucket
// candidates and reports whether the candidate list changed. Buckets change
// rarely relative to frames, so the common case is two integer compares.
func (e *Engine) retargetWindow(u *dataUser, pos cellular.Point) bool {
	b := e.spix.BucketOf(pos)
	if b == u.bucket {
		return false
	}
	u.bucket = b
	return e.winB.Retarget(u.id, e.spix.Candidates(b))
}

// updateUserExactWin is updateUserExact over the candidate window: metre
// distances and dB-domain pilot selection, restricted to the window's
// cells.
func (e *Engine) updateUserExactWin(u *dataUser, dt float64) {
	travelled := e.mobB.Advance(u.id, dt)
	if travelled == 0 && e.chanB.Ready(u.id) {
		e.chanB.AdvancePausedExact(u.id)
		if e.faultDirty {
			e.refreshPausedUser(u)
			return
		}
		u.macM.AdvanceTo(e.now)
		return
	}
	pos := e.mobB.Position(u.id)
	if e.retargetWindow(u, pos) {
		u.pilots = u.pilots[:0] // stale slots: next PilotSet call rebuilds
	}
	e.layout.DistancesForInto(pos, u.cand, e.chanB.DistRow(u.id))
	e.chanB.AdvanceExact(u.id, travelled)
	u.pilots = cellular.PilotSetCellsInto(u.pilots, u.cand, u.gain, e.cfg.PilotFraction, e.cfg.MaxCellPowerW, e.cfg.NoiseW)
	e.filterDownPilots(u)
	u.active = cellular.ActiveSetInto(u.active, u.pilots, e.cfg.SoftHandoffAddDB, e.cfg.PilotMinEcIoDB, 3)
	e.finishMeasurementsWin(u)
}

// updateUserFastWin is updateUserFast over the candidate window: squared
// distances, the fast channel kernel and linear-domain pilot selection. A
// retarget forces the measurement version to bump — entering slots carry an
// invalidated epsilon baseline, and the frame-coherent pilot update starts
// from a clean rebuild.
func (e *Engine) updateUserFastWin(u *dataUser, dt float64) {
	travelled := e.mobB.Advance(u.id, dt)
	if travelled == 0 && e.chanB.Ready(u.id) {
		if e.faultDirty {
			e.refreshPausedUser(u)
			return
		}
		u.macM.AdvanceTo(e.now)
		return
	}
	pos := e.mobB.Position(u.id)
	retargeted := e.retargetWindow(u, pos)
	if retargeted {
		u.pilots = u.pilots[:0]
	}
	e.layout.DistancesSqForInto(pos, u.cand, e.chanB.DistRow(u.id))
	dirty := e.chanB.AdvanceFast(u.id, travelled, e.cfg.RegionEpsilon) || retargeted
	u.pilots = cellular.PilotSetCellsLinearInto(u.pilots, u.cand, u.gain, e.cfg.PilotFraction, e.cfg.MaxCellPowerW, e.cfg.NoiseW)
	e.filterDownPilots(u)
	u.active = cellular.ActiveSetLinearInto(u.active, u.pilots, e.addFactor, e.minEcIo, 3)
	e.finishMeasurementsWin(u)
	if !dirty {
		dirty = !slices.Equal(u.reduced, u.prevReduced)
	}
	if dirty {
		u.ver++
	}
	u.prevReduced = append(u.prevReduced[:0], u.reduced...)
}

// finishMeasurementsWin is finishMeasurements with the gain lookups routed
// through the window: the interference total sums the window's cells only
// (ascending cell order, like the full scan restricted to the window) and
// each reduced-set cell's gain is read at the slot its pilot entry carries.
// Reduced-set cells are always in the window — they come from the window's
// own pilot set.
func (e *Engine) finishMeasurementsWin(u *dataUser) {
	u.reduced = cellular.ReducedActiveSetInto(u.reduced, u.pilots, u.active)
	if len(u.reduced) == 0 {
		// Degenerate coverage hole: fall back to the strongest cell.
		u.reduced = append(u.reduced, int(u.pilots[0].Cell))
	}
	u.hostCell = u.reduced[0]

	// Downlink geometry over the window: serving-cell power over other-cell
	// interference plus noise, with neighbours at nominal activity.
	host := int32(u.hostCell)
	interference := e.cfg.NoiseW
	for s, c := range u.cand {
		if c == host {
			continue
		}
		interference += nominalOtherCellActivity * e.cfg.MaxCellPowerW * u.gain[s]
	}
	hostGain := u.gain[u.pilotSlot(u.hostCell)]
	u.geometry = e.cfg.MaxCellPowerW * hostGain / interference
	u.meanCSIdB = mathx.DB(u.geometry) + schCSIOffsetDB

	cap := e.cfg.FCHTargetFraction * e.cfg.MaxCellPowerW
	u.fchPower.Reset()
	for _, k := range u.reduced {
		g := u.gain[u.pilotSlot(k)]
		req := e.ebioTarget * interference / (g * e.fchPG)
		u.fchPower.Set(k, math.Min(req, cap))
	}

	nominalL := e.cfg.NoiseW * (1 + (e.cfg.ReverseRiseLimit-1)/2)
	revTx := e.ebioTarget * nominalL / (hostGain * e.fchPG)
	u.revFCHRx.Reset()
	for _, k := range u.reduced {
		g := u.gain[u.pilotSlot(k)]
		u.revFCHRx.Set(k, revTx*g/e.cfg.NoiseW)
	}

	u.macM.AdvanceTo(e.now)
}

// pilotSlot returns the window slot of cell k from the user's pilot entry
// for it. Only reduced-set cells are looked up, and the reduced set is a
// prefix of the strength-sorted pilots (the active set is: both add rules
// are monotone in Ec/Io), so the scan ends within the first two entries.
func (u *dataUser) pilotSlot(k int) int {
	for i := range u.pilots {
		if int(u.pilots[i].Cell) == k {
			return int(u.pilots[i].Slot)
		}
	}
	panic(fmt.Sprintf("sim: user %d has no pilot for reduced-set cell %d", u.id, k))
}
