package sim

// White-box tests for the engine internals: user/channel state updates, load
// accounting, admission bookkeeping and burst service. They complement the
// black-box scenario tests in sim_test.go.

import (
	"math"
	"slices"
	"testing"

	"jabasd/internal/cellular"
	"jabasd/internal/core"
	"jabasd/internal/fault"
	"jabasd/internal/mathx"
	"jabasd/internal/stats"
	"jabasd/internal/traffic"
)

func newTestEngine(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Rings = 1
	cfg.SimTime = 5
	cfg.WarmupTime = 0
	cfg.DataUsersPerCell = 3
	cfg.VoiceUsersPerCell = 2
	cfg.Data.MeanReadingTimeSec = 1
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestPopulateCounts(t *testing.T) {
	e := newTestEngine(t, nil)
	if len(e.users) != 7*3 {
		t.Errorf("data users = %d, want 21", len(e.users))
	}
	if len(e.voice) != 7*2 {
		t.Errorf("voice users = %d, want 14", len(e.voice))
	}
	if len(e.queues) != 7 || len(e.loads.Values()) != 7 {
		t.Error("per-cell structures sized wrong")
	}
	// The SoA physics batches must cover every user, and each user's gain
	// slice must alias its row of the channel window (one gain per cell:
	// PilotCells is 0, so the window is the whole map).
	if e.mobB == nil || e.fadeB == nil || e.winB == nil {
		t.Fatal("physics batches not initialised")
	}
	for _, u := range e.users {
		if len(u.gain) != 7 || u.source == nil || u.macM == nil {
			t.Fatal("user substructures not initialised")
		}
		if row := e.winB.GainRow(u.id); &u.gain[0] != &row[0] {
			t.Fatalf("user %d gain does not alias its channel batch row", u.id)
		}
		if e.mobB.Position(u.id) == (cellular.Point{}) {
			t.Fatalf("user %d has no seeded position in the mobility batch", u.id)
		}
	}
}

func TestUpdateUsersProducesConsistentState(t *testing.T) {
	e := newTestEngine(t, nil)
	e.now = 0
	e.updateUsers()
	cap := e.cfg.FCHTargetFraction * e.cfg.MaxCellPowerW
	for _, u := range e.users {
		// Gains must be positive and finite.
		for k, g := range u.gain {
			if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
				t.Fatalf("user %d gain to cell %d invalid: %v", u.id, k, g)
			}
		}
		// Reduced active set must be 1 or 2 cells, subset of the active set
		// (when the active set is non-empty), and hostCell its first entry.
		if len(u.reduced) < 1 || len(u.reduced) > 2 {
			t.Fatalf("reduced set size %d", len(u.reduced))
		}
		if u.hostCell != u.reduced[0] {
			t.Error("hostCell must be the strongest reduced-set cell")
		}
		// FCH powers exist exactly for the reduced-set cells and respect the cap.
		checkFCHCells(t, u)
		for i := 0; i < u.fch.Len(); i++ {
			if _, p := u.fch.At(i); p <= 0 || p > cap+1e-12 {
				t.Errorf("FCH power %v outside (0, %v]", p, cap)
			}
		}
		// Geometry and CSI must be finite.
		if math.IsNaN(u.meanCSIdB) || math.IsInf(u.meanCSIdB, 0) {
			t.Error("meanCSIdB not finite")
		}
	}

	// A reverse-link engine fills the same vector with received powers
	// (normalised to the thermal noise), which must be positive.
	e = newTestEngine(t, func(c *Config) { c.Direction = Reverse })
	e.updateUsers()
	for _, u := range e.users {
		checkFCHCells(t, u)
		for i := 0; i < u.fch.Len(); i++ {
			if _, x := u.fch.At(i); x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("reverse FCH received power invalid: %v", x)
			}
		}
	}
}

// checkFCHCells fails unless u's FCH footprint names exactly its
// reduced-set cells, in reduced-set order.
func checkFCHCells(t *testing.T, u *dataUser) {
	t.Helper()
	if u.fch.Len() != len(u.reduced) {
		t.Fatalf("user %d: %d FCH entries for a reduced set of %d", u.id, u.fch.Len(), len(u.reduced))
	}
	for i, k := range u.reduced {
		if c, _ := u.fch.At(i); c != k {
			t.Fatalf("user %d: FCH entry %d is cell %d, reduced-set cell %d", u.id, i, c, k)
		}
	}
}

// TestOutageRefreshesPausedUsers: on both physics paths, a static user
// pauses after its first frame and skips the recompute, but a frame on which
// the fault mask changed must re-derive its measurements. After one cell
// goes down, no user's pilot, active or reduced set or FCH footprint may
// name that cell, and no user may keep it as host.
func TestOutageRefreshesPausedUsers(t *testing.T) {
	const down = 0
	for _, exact := range []bool{false, true} {
		e := newTestEngine(t, func(c *Config) {
			c.ExactPHY = exact
			c.MinSpeed, c.MaxSpeed = 0, 0
			c.Faults = &fault.Schedule{Cells: []fault.CellEvent{{Cell: down, StartSec: 10 * c.FrameLength, EndSec: c.SimTime}}}
		})
		// hosted counts the users the faulted cell hosts on the frame before the
		// outage, so the checks below are not vacuous.
		hosted := 0
		for f := 0; !e.anyDown; f++ {
			if f == 20 {
				t.Fatalf("exact=%v: cell %d never went down", exact, down)
			}
			hosted = 0
			for _, u := range e.users {
				if u.hostCell == down {
					hosted++
				}
			}
			e.now = float64(f) * e.cfg.FrameLength
			e.step()
		}
		if hosted == 0 {
			t.Fatalf("exact=%v: no user hosted cell %d before the outage", exact, down)
		}
		for _, u := range e.users {
			if u.hostCell == down {
				t.Errorf("exact=%v: user %d still hosted by down cell %d", exact, u.id, down)
			}
			for _, pm := range u.pilots {
				if int(pm.Cell) == down {
					t.Errorf("exact=%v: user %d keeps a pilot from down cell %d", exact, u.id, down)
				}
			}
			if slices.Contains(u.active, down) || slices.Contains(u.reduced, down) {
				t.Errorf("exact=%v: user %d active %v / reduced %v name down cell %d", exact, u.id, u.active, u.reduced, down)
			}
			checkFCHCells(t, u)
		}
	}
}

func TestAccumulateLoadsForwardIncludesOverheadAndFCH(t *testing.T) {
	e := newTestEngine(t, nil)
	e.updateUsers()
	e.accumulateLoads()
	minOverhead := e.cfg.CommonOverheadFrac * e.cfg.MaxCellPowerW
	for k, load := range e.loads.Values() {
		if load < minOverhead {
			t.Errorf("cell %d load %v below the common-channel overhead %v", k, load, minOverhead)
		}
	}
	// Total FCH power across cells must be accounted: the sum of loads must
	// exceed overhead*K by at least the sum of all users' FCH powers.
	sumLoad, sumFCH := 0.0, 0.0
	for _, l := range e.loads.Values() {
		sumLoad += l
	}
	for _, u := range e.users {
		for i := 0; i < u.fch.Len(); i++ {
			_, x := u.fch.At(i)
			sumFCH += x
		}
	}
	if sumLoad < minOverhead*float64(len(e.loads.Values()))+sumFCH-1e-9 {
		t.Error("per-cell loads do not account for all FCH power")
	}
}

func TestAccumulateLoadsReverseStartsAtNoiseFloor(t *testing.T) {
	e := newTestEngine(t, func(c *Config) { c.Direction = Reverse })
	e.updateUsers()
	e.accumulateLoads()
	for k, load := range e.loads.Values() {
		if load < 1 {
			t.Errorf("cell %d reverse load %v below the normalised noise floor", k, load)
		}
		if load > e.cfg.ReverseRiseLimit*3 {
			t.Errorf("cell %d reverse load %v implausibly high before any burst", k, load)
		}
	}
}

func TestAdmitGrantsAndAccountsLoad(t *testing.T) {
	e := newTestEngine(t, func(c *Config) {
		c.Data.MeanReadingTimeSec = 0.2 // requests appear almost immediately
	})
	// Drive a few frames manually until a burst is granted.
	granted := false
	for f := 0; f < 200 && !granted; f++ {
		e.now = float64(f) * e.cfg.FrameLength
		e.step()
		granted = len(e.bursts) > 0
	}
	if !granted {
		t.Fatal("no burst was ever granted")
	}
	for _, b := range e.bursts {
		if b.ratio < 1 || b.ratio > e.cfg.RatePlan.MaxSpreadingRatio {
			t.Errorf("granted ratio %d out of range", b.ratio)
		}
		if b.remaining <= 0 {
			t.Error("active burst has nothing left to send")
		}
		if b.load.Len() == 0 {
			t.Error("active burst holds no resources")
		}
		for i := 0; i < b.load.Len(); i++ {
			if cell, p := b.load.At(i); p <= 0 {
				t.Errorf("burst load at cell %d is %v", cell, p)
			}
		}
		// The user that owns the burst must not be queued anywhere.
		for _, q := range e.queues {
			for _, item := range q.Items() {
				if item == b.user.queuedReq && b.user.queuedReq != nil {
					t.Error("granted request still sits in a queue")
				}
			}
		}
	}
}

func TestServeBurstsCompletesAndReleasesUser(t *testing.T) {
	e := newTestEngine(t, func(c *Config) {
		c.Data.MeanReadingTimeSec = 0.2
		c.Data.MinSizeBits = 20_000
		c.Data.MaxSizeBits = 20_000 // tiny bursts finish quickly
	})
	completedBefore := e.metrics.BurstsCompleted
	for f := 0; f < 600; f++ {
		e.now = float64(f) * e.cfg.FrameLength
		e.step()
	}
	if e.metrics.BurstsCompleted <= completedBefore {
		t.Fatal("no burst completed")
	}
	// Completed users must be back in the thinking state (pending nil).
	busy := 0
	for _, u := range e.users {
		if u.queuedReq != nil {
			busy++
		}
	}
	if busy == len(e.users) {
		t.Error("every user is still busy; BurstDone propagation suspect")
	}
	if e.metrics.BitsDelivered <= 0 {
		t.Error("no bits were accounted as delivered")
	}
}

// TestFrameHotPathStaysAllocationFree pins the point of the dense cell-load
// ledgers: once the per-user buffers have reached steady state, the
// measurement side of the frame loop (channel state, pilot sets, FCH
// ledgers, load accumulation, burst rates) performs no allocations at all,
// both inline (FrameParallel 1, the path every run under a replication or
// sweep fan-out takes) and fanned out over the pool in more than one task
// per pass.
func TestFrameHotPathStaysAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"inline", func(c *Config) { c.FrameParallel = 1 }},
		{"pooled", func(c *Config) {
			c.Rings = 2
			c.DataUsersPerCell = 20
			c.VoiceUsersPerCell = 4
			c.Data.MeanReadingTimeSec = 0.2
			c.FrameParallel = 2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, tc.mutate)
			// Warm up: the per-user buffers (active and pilot sets) keep
			// growing for a few hundred frames before they reach capacity,
			// and in the pooled case the burst list fills.
			for f := 0; f < 400; f++ {
				e.now = float64(f) * e.cfg.FrameLength
				e.step()
			}
			if e.cfg.FrameParallel == 1 {
				if e.pool != nil {
					t.Fatal("FrameParallel 1 started a pool")
				}
			} else if e.pool == nil || tasks(len(e.voice), voiceChunk) < 2 ||
				tasks(len(e.users), userChunk) < 2 || tasks(len(e.bursts), burstChunk) < 2 {
				t.Fatalf("pooled engine does not fan out: pool %v, %d voice users, %d data users, %d bursts",
					e.pool != nil, len(e.voice), len(e.users), len(e.bursts))
			}
			allocs := testing.AllocsPerRun(20, func() {
				e.updateUsers()
				e.accumulateLoads()
				e.burstRates()
			})
			if allocs != 0 {
				t.Errorf("steady-state frame measurement path allocated %v times per frame, want 0", allocs)
			}
		})
	}
}

func TestUserByID(t *testing.T) {
	e := newTestEngine(t, nil)
	for _, u := range e.users {
		if got := e.userByID(u.id); got != u {
			t.Fatalf("userByID(%d) returned the wrong user", u.id)
		}
	}
	if e.userByID(-1) != nil || e.userByID(10_000) != nil {
		t.Error("unknown ids should return nil")
	}
}

func TestCollectRespectsWarmup(t *testing.T) {
	e := newTestEngine(t, func(c *Config) { c.WarmupTime = 2 })
	e.now = 1 // before warm-up
	e.accumulateLoads()
	e.collect()
	if e.metrics.CellLoad != (stats.Running{}) {
		t.Error("statistics must not be collected during warm-up")
	}
	e.now = 3
	e.collect()
	if e.metrics.CellLoad == (stats.Running{}) {
		t.Error("statistics must be collected after warm-up")
	}
}

// queueTestRequest manufactures a queued burst request for user u, as
// generateTraffic would have, and returns it. The engine must have run at
// least one step so the user's channel state exists.
func queueTestRequest(e *Engine, u *dataUser, sizeBits float64) *traffic.BurstRequest {
	req := &traffic.BurstRequest{UserID: u.id, SizeBits: sizeBits, ArrivalTime: e.now, Priority: 1}
	u.queuedReq = req
	u.queuedCell = u.hostCell
	e.queues[u.hostCell].Push(req)
	return req
}

// admitModes runs the sub-test once per frame mode so the edge cases cover
// both the sequential and the snapshot admission paths.
func admitModes(t *testing.T, mutate func(*Config), fn func(t *testing.T, e *Engine)) {
	t.Helper()
	for _, mode := range []FrameMode{FrameSequential, FrameSnapshot} {
		t.Run(string(mode), func(t *testing.T) {
			e := newTestEngine(t, func(c *Config) {
				c.FrameMode = mode
				c.FrameParallel = 2
				if mutate != nil {
					mutate(c)
				}
			})
			defer e.Close()
			// One step gives every user valid channel state and pilot sets.
			e.now = 0
			e.step()
			e.now = e.cfg.FrameLength
			// Quiesce: drop the organic traffic the step produced, so the
			// probe request injected by the sub-test is the only one in play.
			for _, q := range e.queues {
				for _, item := range append([]*traffic.BurstRequest(nil), q.Items()...) {
					q.Remove(item)
				}
			}
			for _, u := range e.users {
				u.queuedReq = nil
			}
			e.bursts = e.bursts[:0]
			fn(t, e)
		})
	}
}

// TestAdmitCountsSkippedCellsOnRegionError: when the measurement sub-layer
// cannot build the admissible region, the cell is skipped for the frame and
// the failure is counted instead of silently swallowed.
func TestAdmitCountsSkippedCellsOnRegionError(t *testing.T) {
	admitModes(t, nil, func(t *testing.T, e *Engine) {
		u := e.users[0]
		queueTestRequest(e, u, 100_000)
		e.cfg.RatePlan.GammaS = 0 // invalid measurement input => region error
		before := len(e.bursts)
		e.admit()
		if e.metrics.SkippedCells == 0 {
			t.Fatal("region error did not count a skipped cell")
		}
		if e.queues[u.queuedCell].Len() != 1 {
			t.Error("skipped cell should leave the queue untouched")
		}
		if len(e.bursts) != before {
			t.Error("skipped cell must not grant")
		}
	})
}

// TestAdmitZeroRatioAssignmentLeavesQueue: an over-budget cell yields the
// all-zero assignment — requests stay queued for the next frame and no
// burst, load or skip is recorded.
func TestAdmitZeroRatioAssignmentLeavesQueue(t *testing.T) {
	admitModes(t, nil, func(t *testing.T, e *Engine) {
		u := e.users[0]
		queueTestRequest(e, u, 100_000)
		// Saturate the ledger: every cell far beyond the power budget makes
		// every region bound negative, forcing m = 0 for all requests.
		e.loads.Fill(10 * e.cfg.MaxCellPowerW)
		bursts := len(e.bursts)
		ratios := e.metrics.AssignedRatio
		e.admit()
		if e.queues[u.queuedCell].Len() != 1 {
			t.Error("zero-ratio assignment must keep the request queued")
		}
		if len(e.bursts) != bursts {
			t.Error("zero-ratio assignment must not start a burst")
		}
		if e.metrics.SkippedCells != 0 {
			t.Error("an infeasible frame is a valid zero assignment, not a skipped cell")
		}
		if e.metrics.AssignedRatio != ratios {
			t.Error("zero grants must not be recorded as assigned ratios")
		}
	})
}

// TestSnapshotSolvePhaseLeavesLedgerUntouched pins the snapshot invariant
// the parallel solve phase relies on: the per-cell solve routine (gather,
// reseed, region build, schedule, capture) must not write the shared
// ledger; only commitSlot may.
func TestSnapshotSolvePhaseLeavesLedgerUntouched(t *testing.T) {
	e := newTestEngine(t, func(c *Config) {
		c.FrameMode = FrameSnapshot
		c.FrameParallel = 1
	})
	defer e.Close()
	e.now = 0
	e.step()
	e.now = e.cfg.FrameLength
	u := e.users[0]
	queueTestRequest(e, u, 100_000)
	before := append([]float64(nil), e.loads.Values()...)
	var g cellGrants
	e.solveSlot(e.workers[0], &g, u.queuedCell, e.loads.Values())
	if g.offered == 0 || g.skipped {
		t.Fatalf("solve found nothing to schedule (offered %d, skipped %v)", g.offered, g.skipped)
	}
	for k, v := range e.loads.Values() {
		if v != before[k] {
			t.Fatalf("solve phase mutated the ledger at cell %d: %v -> %v", k, before[k], v)
		}
	}
	if len(g.ratios) == 0 {
		t.Fatal("an unloaded cell granted nothing; the commit below would test nothing")
	}
	e.commitSlot(&g)
	changed := false
	for k, v := range e.loads.Values() {
		changed = changed || v != before[k]
	}
	if !changed {
		t.Error("committing a granted slot left the ledger untouched")
	}
}

// TestSnapshotWorkersOwnDisjointSchedulers pins the per-worker ownership
// the warm solvers lean on: every snapshot engine holds exactly one
// scheduler clone per pool worker — distinct from the engine's and from
// every other worker's, because a JABA-SD instance carries mutable ILP
// solver arenas that would race if shared across the solve fan-out.
func TestSnapshotWorkersOwnDisjointSchedulers(t *testing.T) {
	// The subtest names are stable test IDs; they differ only in the worker
	// count.
	for _, tc := range []struct {
		name     string
		parallel int
	}{
		{"untiled", 4},
		{"tiled", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, func(cfg *Config) {
				cfg.FrameMode = FrameSnapshot
				cfg.FrameParallel = tc.parallel
			})
			defer e.Close()
			if e.pool == nil || len(e.workers) != e.pool.Workers() {
				t.Fatalf("got %d workers, want one per pool worker", len(e.workers))
			}
			if len(e.workers) < 2 {
				t.Fatalf("expected multiple workers, got %d", len(e.workers))
			}
			seen := map[core.Scheduler]bool{e.scheduler: true}
			for i, w := range e.workers {
				if w.sched == nil {
					t.Fatalf("worker %d has no scheduler", i)
				}
				if seen[w.sched] {
					t.Fatalf("worker %d shares a scheduler instance with the engine or another worker", i)
				}
				seen[w.sched] = true
			}
		})
	}
}

// TestSequentialWorkerRunsEngineScheduler pins the sequential mode's one
// admission worker: it runs e.scheduler itself, never a clone, and never
// reseeds it per (frame, cell), so a stateful scheduler keeps one stream
// across the run (the stream the checkpoint stores). The physics pool's
// other workers carry distance rows but no scheduler.
func TestSequentialWorkerRunsEngineScheduler(t *testing.T) {
	for _, par := range []int{1, 3} {
		e := newTestEngine(t, func(cfg *Config) {
			cfg.Scheduler = SchedulerRandom
			cfg.FrameParallel = par
		})
		if e.workers[0].sched != e.scheduler {
			t.Fatalf("FrameParallel=%d: sequential worker 0 does not run e.scheduler", par)
		}
		if e.workers[0].seeder != nil {
			t.Errorf("FrameParallel=%d: sequential worker reseeds its scheduler per (frame, cell)", par)
		}
		if par == 1 {
			if e.pool != nil || len(e.workers) != 1 {
				t.Errorf("FrameParallel=1: got a pool or %d workers, want one inline worker", len(e.workers))
			}
			continue
		}
		if e.pool == nil || e.pool.Workers() != par || len(e.workers) != par {
			t.Fatalf("FrameParallel=%d: want a %d-worker physics pool with one frameWorker each, got %d workers", par, par, len(e.workers))
		}
		for i, w := range e.workers {
			if len(w.dist) != e.spix.Window() {
				t.Errorf("worker %d distance row has %d entries, want %d", i, len(w.dist), e.spix.Window())
			}
			if i > 0 && (w.sched != nil || w.seeder != nil) {
				t.Errorf("physics-only worker %d holds a scheduler", i)
			}
		}
	}
}

// burstFrame is one live burst's accounting after a frame.
type burstFrame struct {
	user                               int
	remaining, servedBits, serviceTime float64
}

// runBurstFrames steps e through frames frames and returns each frame's
// live bursts and the running Metrics.BitsDelivered. After every frame it
// checks each burst served that frame against the rate recomputed from its
// user's post-update state — the mean CSI updateUsers set this frame and
// the fading at e.now — and it returns the number of bursts so checked and
// the largest number of rate-pass tasks one frame fanned out (0 when every
// frame ran inline).
func runBurstFrames(t *testing.T, e *Engine, frames int) (out [][]burstFrame, bits []float64, checked, maxTasks int) {
	t.Helper()
	type before struct {
		remaining, servedBits float64
		serving               bool
	}
	prev := map[*burst]before{}
	dt := e.cfg.FrameLength
	for f := 0; f < frames; f++ {
		clear(prev)
		for _, b := range e.bursts {
			prev[b] = before{b.remaining, b.servedBits, b.setupRemaining <= 0}
		}
		// Nothing adds or drops a burst between the end of one frame and
		// the next frame's rate pass, so this is the pass's burst count.
		if n := tasks(len(e.bursts), burstChunk); e.pool != nil && n > 1 {
			maxTasks = max(maxTasks, n)
		}
		e.now = float64(f) * dt
		e.step()
		rows := make([]burstFrame, 0, len(e.bursts))
		for _, b := range e.bursts {
			rows = append(rows, burstFrame{b.user.id, b.remaining, b.servedBits, b.serviceTime})
			p, ok := prev[b]
			if !ok || !p.serving {
				continue
			}
			u := b.user
			bp := e.phy.Throughput(u.meanCSIdB + mathx.DB(math.Max(e.fadeB.PowerAt(u.id, e.now), 1e-12)))
			delivered := min(e.cfg.RatePlan.SCHBitRate(b.ratio, bp)*dt, p.remaining)
			if want := p.servedBits + delivered; b.servedBits != want {
				t.Fatalf("frame %d, user %d: served %v bits, want %v from this frame's CSI", f, u.id, b.servedBits, want)
			}
			checked++
		}
		out = append(out, rows)
		bits = append(bits, e.metrics.BitsDelivered)
	}
	return out, bits, checked, maxTasks
}

// TestBurstRatesIndependentOfWorkers pins the burst-rate pass: on a map with
// more than one pass chunk of live bursts, every frame's per-burst
// accounting and the delivered-bit total are identical inline and fanned
// out over 2 and 8 workers, every served burst was served at the rate its
// user's current CSI selects, and the pooled runs really split the pass.
func TestBurstRatesIndependentOfWorkers(t *testing.T) {
	const frames = 150
	var (
		wantRows [][]burstFrame
		wantBits []float64
	)
	for _, par := range []int{1, 2, 8} {
		e := newTestEngine(t, func(c *Config) {
			c.Rings = 2
			c.DataUsersPerCell = 20
			c.Data.MeanReadingTimeSec = 0.2
			c.FrameMode = FrameSnapshot
			c.FrameParallel = par
		})
		rows, bits, checked, tasks := runBurstFrames(t, e, frames)
		if checked == 0 {
			t.Fatalf("FrameParallel=%d: no burst was served", par)
		}
		if par == 1 {
			wantRows, wantBits = rows, bits
			continue
		}
		if tasks < 2 {
			t.Fatalf("FrameParallel=%d: the rate pass never fanned out more than one task", par)
		}
		for f := range frames {
			if bits[f] != wantBits[f] {
				t.Fatalf("FrameParallel=%d, frame %d: BitsDelivered %v, inline %v", par, f, bits[f], wantBits[f])
			}
			if !slices.Equal(rows[f], wantRows[f]) {
				t.Fatalf("FrameParallel=%d, frame %d: burst accounting differs from the inline run", par, f)
			}
		}
	}
}
