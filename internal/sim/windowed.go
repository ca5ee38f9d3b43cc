package sim

// The physics path. Every data user tracks channel state only to the
// candidate window of its current spatial bucket (internal/spatial),
// retargeting the window when it crosses into a bucket with a different
// candidate list (channel.Window carries the shadowing state of cells that
// stay). The user's slot-to-cell map is its bucket's candidate list in the
// spatial index, aliased, not copied: the index is immutable, so the list
// doubles as the old list of the next retarget. Config.PilotCells sets the
// window width; 0 makes the window every cell, so each bucket's candidate
// list is the identity, Retarget no-ops after the first frame and the run
// is the paper's full per-cell scan. A window narrower than the map is what
// makes 1000-cell maps tractable: O(users x window) instead of O(users x
// cells) memory and per-frame work.
//
// All downstream admission code is window-agnostic: pilots, active and
// reduced sets carry global cell indices; only the gain lookups here go
// through the slot map, and each pilot entry carries its window slot —
// rebuilt when the window retargets and on checkpoint restore — so those
// lookups need no search. A user keeps only its strongest
// cellular.TopPilots pilots, whatever the window width.
//
// The distance row an advance reads is scratch, not state: each worker of
// the update fan-out owns one row (frameWorker.dist), refilled for every
// user it advances.
//
// The exact reference path (ExactPHY) and the default fast path share one
// control flow and differ only in the kernels they call: metre or squared
// distances, AdvanceExact or AdvanceFast, dB- or linear-domain pilot and
// active sets.

import (
	"fmt"
	"math"

	"jabasd/internal/cellular"
	"jabasd/internal/mathx"
	"jabasd/internal/measurement"
)

// The kept pilots must cover the SCRM payload (see gatherCell): this fails to
// compile if TopPilots drops below SCRMMaxPilots.
var _ [cellular.TopPilots - measurement.SCRMMaxPilots]struct{}

// retargetWindow points user u's channel window at its position's bucket
// candidates and reports whether the candidate list changed. Buckets change
// rarely relative to frames, so the common case is two integer compares.
func (e *Engine) retargetWindow(u *dataUser, pos cellular.Point) bool {
	b := e.spix.BucketOf(pos)
	if b == u.bucket {
		return false
	}
	cand := e.spix.Candidates(b)
	changed := e.winB.Retarget(u.id, u.cand, cand)
	u.bucket, u.cand = b, cand
	return changed
}

// updateUser advances one data user by one frame: position, window gains,
// pilot/active/reduced sets, FCH ledgers and MAC state. dist is the calling
// worker's distance scratch, at least the window width long. A zero-travel
// frame leaves every derived quantity bitwise unchanged, so a paused user
// skips the recompute; the exact path first consumes the Gaussian draws
// its reference stream takes anyway. On a frame where the fault mask
// changed, a paused user re-derives its measurements from its unchanged
// gains and window (see fault.go).
func (e *Engine) updateUser(u *dataUser, dt float64, dist []float64) {
	exact := e.cfg.ExactPHY
	travelled := e.mobB.Advance(u.id, dt)
	if travelled == 0 && e.winB.Ready(u.id) {
		if exact {
			e.winB.AdvancePausedExact(u.id)
		}
		if e.faultDirty {
			e.refreshPilots(u)
			return
		}
		u.macM.AdvanceTo(e.now)
		return
	}
	pos := e.mobB.Position(u.id)
	retargeted := e.retargetWindow(u, pos)
	if retargeted {
		u.pilots = u.pilots[:0] // stale slots: the pilot kernel rebuilds
	}
	if exact {
		e.layout.DistancesForInto(pos, u.cand, dist)
		e.winB.AdvanceExact(u.id, dist, travelled)
	} else {
		e.layout.DistancesSqForInto(pos, u.cand, dist)
		e.winB.AdvanceFast(u.id, dist, travelled)
	}
	e.refreshPilots(u)
}

// refreshPilots forms the user's pilot and active sets from its current
// window gains — dB domain on the exact path, linear domain on the fast
// path — skipping out-of-service cells (see downMask), and derives
// everything downstream.
func (e *Engine) refreshPilots(u *dataUser) {
	down := e.downMask()
	if e.cfg.ExactPHY {
		u.pilots = cellular.PilotSetCellsInto(u.pilots, u.cand, u.gain, down, e.cfg.PilotFraction, e.cfg.MaxCellPowerW, e.cfg.NoiseW)
		u.active = cellular.ActiveSetInto(u.active, u.pilots, e.cfg.SoftHandoffAddDB, e.cfg.PilotMinEcIoDB, 3)
	} else {
		u.pilots = cellular.PilotSetCellsLinearInto(u.pilots, u.cand, u.gain, down, e.cfg.PilotFraction, e.cfg.MaxCellPowerW, e.cfg.NoiseW)
		u.active = cellular.ActiveSetLinearInto(u.active, u.pilots, e.addFactor, e.minEcIo, 3)
	}
	e.finishMeasurements(u)
}

// finishMeasurements derives the admission-facing quantities from the
// freshly updated gains and active set: reduced set, host cell, mean CSI
// and the FCH footprint of the configured direction — the other link's is
// never read, so it is not computed. Identical arithmetic on both the
// exact and the fast path (the inputs differ only by the kernel
// tolerances). The
// interference total sums the window's cells in ascending cell order, and
// each reduced-set cell's gain is read at the slot its pilot entry carries:
// reduced-set cells always come from the window's own pilot set.
func (e *Engine) finishMeasurements(u *dataUser) {
	u.reduced = cellular.ReducedActiveSetInto(u.reduced, u.pilots, u.active)
	if len(u.reduced) == 0 {
		// Degenerate coverage hole: fall back to the strongest cell.
		u.reduced = append(u.reduced, int(u.pilots[0].Cell))
	}
	u.hostCell = u.reduced[0]

	// Downlink geometry: serving-cell power over other-cell interference
	// plus noise, with neighbours at nominal activity.
	host := int32(u.hostCell)
	interference := e.cfg.NoiseW
	for s, c := range u.cand {
		if c == host {
			continue
		}
		interference += nominalOtherCellActivity * e.cfg.MaxCellPowerW * u.gain[s]
	}
	hostGain := u.gain[u.pilotSlot(u.hostCell)]
	geometry := e.cfg.MaxCellPowerW * hostGain / interference
	u.meanCSIdB = mathx.DB(geometry) + schCSIOffsetDB

	u.fch.Reset()
	switch e.cfg.Direction {
	case Forward:
		// FCH power needed at each reduced-active-set cell (equation 6
		// inputs): P = EbIo_target * I / (gain * processing gain), capped.
		cap := e.cfg.FCHTargetFraction * e.cfg.MaxCellPowerW
		for _, k := range u.reduced {
			g := u.gain[u.pilotSlot(k)]
			req := e.ebioTarget * interference / (g * e.fchPG)
			u.fch.Set(k, math.Min(req, cap))
		}
	case Reverse:
		// FCH received power at each reduced-active-set cell, assuming the
		// mobile's reverse power control holds the target at its best cell
		// against a nominal half-limit interference level. Stored
		// normalised by the thermal noise power (rise-over-thermal units)
		// so that the admission arithmetic works on O(1) quantities.
		nominalL := e.cfg.NoiseW * (1 + (e.cfg.ReverseRiseLimit-1)/2)
		revTx := e.ebioTarget * nominalL / (hostGain * e.fchPG)
		for _, k := range u.reduced {
			g := u.gain[u.pilotSlot(k)]
			u.fch.Set(k, revTx*g/e.cfg.NoiseW)
		}
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
