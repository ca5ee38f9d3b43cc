package sim

import (
	"context"
	"fmt"
	"math"

	"jabasd/internal/cellular"
	"jabasd/internal/channel"
	"jabasd/internal/core"
	"jabasd/internal/fault"
	"jabasd/internal/load"
	"jabasd/internal/mac"
	"jabasd/internal/mathx"
	"jabasd/internal/measurement"
	"jabasd/internal/mobility"
	"jabasd/internal/replay"
	"jabasd/internal/rng"
	"jabasd/internal/spatial"
	"jabasd/internal/stream"
	"jabasd/internal/trace"
	"jabasd/internal/traffic"
	"jabasd/internal/vtaoc"
)

// schCSIOffsetDB calibrates the supplemental-channel symbol Es/Io from the
// user's downlink geometry (serving-cell power over other-cell interference
// plus noise): the SCH enjoys the spreading/coding gain of the orthogonal
// coder on top of the raw geometry. The exact value only shifts where users
// sit on the VTAOC mode ladder; 12 dB places cell-centre users in the top
// modes and cell-edge users around modes 1-2, matching the qualitative
// behaviour of the adaptive physical layer papers.
const schCSIOffsetDB = 12.0

// nominalOtherCellActivity is the fraction of P_max neighbouring cells are
// assumed to transmit at when computing a user's interference (used for FCH
// power budgeting and geometry; the admission accounting itself uses the
// actual tracked loads).
const nominalOtherCellActivity = 0.75

// phy abstracts the adaptive coder vs the fixed-rate ablation.
type phy interface {
	AverageThroughput(meanCSIDB float64) float64
	Throughput(csiDB float64) float64
}

// burst is an ongoing (granted) data burst.
type burst struct {
	user      *dataUser
	ratio     int
	remaining float64
	// load is the resource this burst consumes per cell while active:
	// forward -> watts of base-station power, reverse -> watts of received
	// interference, fixed at grant time.
	load load.Vec
	// setupRemaining is the MAC set-up delay still to elapse before bits flow.
	setupRemaining float64
	servedBits     float64
	serviceTime    float64
	// bp is the instantaneous VTAOC throughput (bits/symbol) for the current
	// frame, written by serveBursts' rate pass just before the accounting
	// reads it. It is transient: recomputed every frame and never
	// checkpointed.
	bp float64
}

// dataUser is one packet-data mobile. Its physics state — position, fast
// fading and per-slot shadowing/gain over its measurement window — lives
// in the engine's SoA batches (mobB, fadeB, winB), indexed by id; gain
// aliases the user's row of the channel window and cand its bucket's
// candidate list in the spatial index.
type dataUser struct {
	id       int
	gain     []float64 // aliases winB.GainRow(id): long-term linear gain to each window slot
	pilots   []cellular.PilotMeasurement
	active   []int
	reduced  []int
	hostCell int
	source   *traffic.DataModel
	macM     *mac.Machine

	// bucket is the spatial-grid bucket the window was last targeted at
	// (-1 before the first frame) and cand aliases that bucket's candidate
	// list in the spatial index (nil before the first frame): global cell
	// indices, ascending, one per window slot. The index's lists are
	// immutable, so the window keeps no slot map of its own.
	bucket int
	cand   []int32

	// queuedReq is the user's outstanding request, queued at queuedCell
	// until granted and kept until its burst completes. Every queue entry
	// is its user's queuedReq.
	queuedReq  *traffic.BurstRequest
	queuedCell int

	// fch is the FCH footprint at each reduced-set cell in the configured
	// direction's units, rebuilt per frame: transmit power (W) on the
	// forward link, received power over thermal noise on the reverse link.
	fch       load.Vec
	meanCSIdB float64 // local-mean SCH Es/Io (dB)
}

// voiceUser is one circuit voice mobile (background load only). Voice user
// v's position is user v of the engine's voiceMob batch.
type voiceUser struct {
	model *traffic.VoiceModel
	cell  int // serving cell, re-evaluated each frame from position only
}

// Engine runs one replication.
type Engine struct {
	cfg       Config
	layout    *cellular.Layout
	region    mobility.Region
	coder     *vtaoc.Coder
	phy       phy
	scheduler core.Scheduler
	src       *rng.Source

	users  []*dataUser
	voice  []voiceUser
	queues []*traffic.Queue // per cell
	bursts []*burst

	// Structure-of-arrays physics state. For the data users, indexed by
	// user id: waypoint mobility, Jakes fast fading and the long-term
	// channel (path loss x shadowing) over each user's measurement window,
	// every cell when PilotCells is 0 (see windowed.go). voiceMob is the
	// voice users' waypoint mobility, indexed like voice. Each user's rows
	// are touched only by the goroutine updating that user, so the chunked
	// update fan-out is race-free. spix is the spatial bucket index: it
	// hands out the window candidates and answers the voice users'
	// nearest-cell queries.
	mobB     *mobility.WaypointBatch
	fadeB    *rng.JakesBatch
	winB     *channel.Window
	voiceMob *mobility.WaypointBatch
	spix     *spatial.Index

	// Per-run constants hoisted out of the per-user frame loop. The exact
	// path computes identical values to the per-call originals; the linear
	// pilot thresholds serve the fast path only.
	fchPG      float64 // W/Rb of the FCH
	ebioTarget float64 // linear FCH Eb/Io target
	addFactor  float64 // 10^(-SoftHandoffAddDB/10)
	minEcIo    float64 // 10^(PilotMinEcIoDB/10)

	// loads is the per-cell resource ledger for this frame: forward-link
	// transmit power (W) or reverse-link received power (W) depending on
	// the configured direction. Allocated once, refilled every frame.
	loads *load.Ledger

	// Admission state (see admit). workers holds one frameWorker per pool
	// worker (one without a pool); in sequential mode workers[0] runs
	// e.scheduler itself and is the only worker admit uses. active lists the
	// frame's cells with queued requests and grants holds one outcome slot
	// per active cell. pool is the user-seeding (populate), user-update,
	// burst-rate and snapshot-solve fan-out; it is nil, the inline pool that
	// runs every task on the caller as worker 0, when FrameParallel == 1.
	// Otherwise the goroutine running step is worker 0 too, and the pool's
	// helpers poll between a frame's passes before they park. The snapshot
	// solve runs one pool task per active cell.
	pool    *stream.Pool
	workers []*frameWorker
	active  []int
	grants  []cellGrants

	// userTask, rateTask and solveTask are the pool's per-frame task bodies
	// (updateUserChunk, rateBurstChunk, solveTaskCells), bound once in
	// initWorkers so a fan-out does not allocate a closure every frame.
	userTask, rateTask, solveTask func(worker, task int)

	// Telemetry, nil/empty when cfg.Trace is unset: the recorder wrapping
	// the configured sink and the per-cell frame counters, reset every
	// frame. All writes happen on the engine's sequential sections (gather
	// results are copied out of the per-cell grant slots), so the trace is
	// byte-identical for any FrameParallel.
	rec        *trace.Recorder
	traceCells []traceCell

	// solveRec, non-nil when cfg.SolveTrace is set, streams the solve
	// trace (see internal/replay). Emission happens only on the engine's
	// sequential sections; the parallel solve phases capture deep copies
	// into their grant slots first.
	solveRec *replay.Recorder

	// fault, non-nil when cfg.Faults carries events, is the per-frame fault
	// state (down mask, derate vector, load-event cursor — see fault.go).
	// faultDirty and anyDown are its per-frame digests, recomputed by
	// applyFaults and read-only for the rest of the frame.
	fault      *fault.State
	faultDirty bool
	anyDown    bool

	// retryPend marks cells whose last attempted solve was skipped (region
	// build or scheduler failure); a subsequent successful solve counts as a
	// recovered retry in Metrics.SolveRetries. The queue keeps the requests
	// either way — the admission layer retries a failed cell next frame by
	// construction — this makes the recovery observable.
	retryPend []bool

	metrics *Metrics
	now     float64
	frame   int
}

// traceCell accumulates one cell's telemetry counters for the current
// frame; see trace.Record for the field semantics.
type traceCell struct {
	offered      int
	admitted     int
	grantedRatio int
	completed    int
	delaySum     float64
	active       int
	spill        int
	solve        string
}

// admitScratch is one admission worker's per-cell working set: the
// scheduler requests, their users and the direction-specific measurement
// attachments. It is reused across cells and frames.
type admitScratch struct {
	reqs  []core.Request
	users []*dataUser
	fwd   []measurement.ForwardRequest
	rev   []measurement.ReverseRequest
	csi   []float64 // live users' mean CSI, input to the batched PHY eval
	bp    []float64 // per-user average throughput, batch output
	// revPilot and scrm back rev[i]'s reverse pilot report and SCRM: one
	// Vec each per gathered reverse request, refilled per cell.
	revPilot []load.Vec
	scrm     []load.Vec
	// region is the admissible region the last solveCell call built, kept
	// for the solve trace, which deep-copies it out of this reused scratch.
	region measurement.Region
}

// frameWorker owns the mutable state one pool worker needs so concurrent
// solves and user updates never share anything: scratch buffers, a region
// builder, a scheduler instance (a core.Cloner clone per snapshot worker)
// and the distance row the user updates fill before each channel advance.
type frameWorker struct {
	scratch admitScratch
	regionB measurement.RegionBuilder
	sched   core.Scheduler
	// seeder is sched's per-(frame, cell) reseed hook in snapshot mode; nil
	// in sequential mode, where the scheduler keeps one stream for the run.
	seeder core.CellSeeder
	// dist is one window-width row of distance scratch: metres on the exact
	// path, squared metres on the fast path (see updateUser).
	dist []float64
}

// cellGrants is the outcome of one cell's solve, held until commitSlot
// applies it in cell-index order. The slices are reused buffers; only
// entries with a positive ratio are recorded.
type cellGrants struct {
	cell     int
	skipped  bool // region build or scheduler failed; counted, not granted
	fallback bool // exact solve hit its node budget; grants are greedy's
	offered  int  // live requests gathered, for the telemetry trace
	users    []*dataUser
	ratios   []int
	// prob is the deep-copied solve-trace record (nil unless tracing):
	// captured by the worker, emitted by the sequential commit phase so the
	// stream order never depends on worker scheduling.
	prob *replay.Problem
}

// NewEngine builds a ready-to-run engine for the configuration.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	coder, err := vtaoc.New(cfg.VTAOC)
	if err != nil {
		return nil, err
	}
	if !cfg.ExactPHY {
		// Fast path: evaluate the VTAOC ladder through the PR 5 lookup table
		// (documented <= 5e-7 absolute of the exact integral). The exact
		// reference mode keeps the integral so golden outputs stay
		// byte-identical.
		coder.Tabulate()
	}
	var p phy = coder
	if cfg.UseFixedRatePHY {
		fr, err := vtaoc.NewFixedRate(coder, cfg.FixedRateMode)
		if err != nil {
			return nil, err
		}
		p = fr
	}
	sched, err := NewScheduler(cfg.Scheduler, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if j, ok := sched.(*core.JABASD); ok {
		// Graceful degradation: bound the exact solve's node count; a capped
		// solve falls back to the greedy schedule (see core.JABASD.NodeBudget).
		// Clone() carries the budget, so snapshot workers degrade at
		// exactly the same point.
		j.NodeBudget = cfg.SolveNodeBudget
	}
	layout := cellular.NewHexLayout(cfg.Rings, cfg.CellRadius, cfg.WrapAround)
	w, h := layout.Bounds()
	e := &Engine{
		cfg:       cfg,
		layout:    layout,
		region:    mobility.Region{Width: w, Height: h},
		coder:     coder,
		phy:       p,
		scheduler: sched,
		src:       rng.New(cfg.Seed),
		metrics: &Metrics{
			Scheduler: sched.Name(),
			Direction: cfg.Direction.String(),
			Cells:     layout.NumCells(),
		},
	}
	e.fchPG = cfg.RatePlan.FCHSpreadingGain / cfg.RatePlan.FCHThroughput
	e.ebioTarget = mathx.Linear(cfg.FCHEbIoTargetDB)
	e.addFactor = math.Pow(10, -cfg.SoftHandoffAddDB/10)
	e.minEcIo = math.Pow(10, cfg.PilotMinEcIoDB/10)
	e.spix = spatial.New(layout, cfg.PilotCells)
	e.queues = make([]*traffic.Queue, layout.NumCells())
	for k := range e.queues {
		e.queues[k] = traffic.NewQueue()
	}
	e.fault = newFaultState(cfg, layout.NumCells())
	e.retryPend = make([]bool, layout.NumCells())
	e.loads = load.NewLedger(layout.NumCells())
	if cfg.Trace != nil {
		e.rec = trace.NewRecorder(cfg.Trace, cfg.TraceEvery)
		e.traceCells = make([]traceCell, layout.NumCells())
	}
	if cfg.SolveTrace != nil {
		kind := cfg.Scheduler
		if kind == "" {
			kind = SchedulerJABASD
		}
		e.solveRec = replay.NewRecorder(cfg.SolveTrace, replay.Header{
			Scheduler:    string(kind),
			Objective:    cfg.Objective,
			MaxRatio:     cfg.RatePlan.MaxSpreadingRatio,
			MAC:          cfg.MAC,
			FrameLengthS: cfg.FrameLength,
			Seed:         cfg.Seed,
		})
	}
	if err := e.initWorkers(); err != nil {
		return nil, err
	}
	e.populate()
	return e, nil
}

// initWorkers sets up the pool and its workers. It runs before populate,
// which seeds the users over the pool. Any FrameParallel but 1 starts a
// pool (FrameParallel workers, GOMAXPROCS for 0): the engine's own
// goroutine is worker 0 and parked helpers are the rest. It does so in
// both frame modes: the user update (data and voice users in one pass)
// and the burst rates fan out over it either way, and every worker gets
// its distance row. Sequential admission runs on worker 0 alone, holding
// e.scheduler itself; the other workers carry no scheduler. Snapshot mode gives every
// worker its own scheduler clone, and FrameParallel == 1 (the nil inline
// pool, no goroutines) still runs the snapshot semantics through worker 0,
// so the output is identical to any other worker count.
func (e *Engine) initWorkers() error {
	n := e.layout.NumCells()
	e.active = make([]int, 0, n)
	e.grants = make([]cellGrants, n)
	snapshot := e.cfg.FrameMode.normalize() == FrameSnapshot
	var cl core.Cloner
	if snapshot {
		var ok bool
		if cl, ok = e.scheduler.(core.Cloner); !ok {
			return fmt.Errorf("sim: scheduler %s does not implement core.Cloner, required by the snapshot frame mode (one independent instance per worker)", e.scheduler.Name())
		}
	}
	if e.cfg.FrameParallel != 1 {
		e.pool = stream.NewPool(e.cfg.FrameParallel)
	}
	e.userTask = e.updateUserChunk
	e.rateTask = e.rateBurstChunk
	e.solveTask = e.solveTaskCells
	width := e.spix.Window()
	e.workers = make([]*frameWorker, e.pool.Workers())
	for i := range e.workers {
		fw := &frameWorker{dist: make([]float64, width)}
		if snapshot {
			fw.sched = cl.Clone()
			fw.seeder, _ = fw.sched.(core.CellSeeder)
		}
		e.workers[i] = fw
	}
	if !snapshot {
		e.workers[0].sched = e.scheduler
	}
	return nil
}

// Close releases the worker pool. Run closes the engine when it finishes;
// tests that drive step() directly should defer Close themselves. Closing is
// idempotent and a closed engine falls back to the inline pool.
func (e *Engine) Close() {
	e.pool.Close()
	e.pool = nil
}

// populate creates the data and voice users. Each user's physics state is
// seeded into the SoA batches from its own substreams: a data user's
// mobility from userSrc.Split(1), fading from Split(2), window slot i's
// shadowing from Split(10+i) (slot i is cell i on a map-wide window); a
// voice user's activity from vsrc.Split(1) and mobility from Split(2).
//
// Every user owns its substreams, so only the parent splits are ordered:
// a sequential pass draws each user's parent substream from e.src in the
// scalar engine's order (cell c's data users, then its voice users), and
// the seeding from those parents fans out over the frame pool in
// userChunk/voiceChunk tasks, each writing only its own users' slots. The
// result is identical for any pool size, the inline pool included.
func (e *Engine) populate() {
	nCells := e.layout.NumCells()
	perData, perVoice := e.cfg.DataUsersPerCell, e.cfg.VoiceUsersPerCell
	nData, nVoice := nCells*perData, nCells*perVoice
	e.mobB = mobility.NewWaypointBatch(e.region, e.cfg.MinSpeed, e.cfg.MaxSpeed, 30, nData)
	e.voiceMob = mobility.NewWaypointBatch(e.region, e.cfg.MinSpeed, e.cfg.MaxSpeed, 30, nVoice)
	e.fadeB = rng.NewJakesBatch(nData, 16, e.cfg.DopplerHz)
	e.winB = channel.NewWindow(nData, e.spix.Window(), e.cfg.PathLoss, e.cfg.ShadowSigmaDB, e.cfg.ShadowDecorrM)
	e.users = make([]*dataUser, nData)
	e.voice = make([]voiceUser, nVoice)
	srcs := make([]rng.Source, nData+nVoice)
	dataSrcs, voiceSrcs := srcs[:nData], srcs[nData:]
	for c := 0; c < nCells; c++ {
		for i := 0; i < perData; i++ {
			uid := c*perData + i
			e.src.SplitInto(&dataSrcs[uid], uint64(1000+uid))
		}
		for i := 0; i < perVoice; i++ {
			e.src.SplitInto(&voiceSrcs[c*perVoice+i], uint64(500000+c*1000+i))
		}
	}
	dataTasks := tasks(nData, userChunk)
	seed := func(_, task int) {
		if task < dataTasks {
			lo := task * userChunk
			for uid := lo; uid < min(lo+userChunk, nData); uid++ {
				e.seedDataUser(uid, &dataSrcs[uid])
			}
			return
		}
		lo := (task - dataTasks) * voiceChunk
		for v := lo; v < min(lo+voiceChunk, nVoice); v++ {
			e.seedVoiceUser(v, &voiceSrcs[v])
		}
	}
	e.pool.Run(dataTasks+tasks(nVoice, voiceChunk), seed)
}

// seedDataUser creates data user uid from its parent substream. Split
// consumes one parent draw per call, so the split order below (1, 2, 3,
// then 10..10+cells) must match the scalar engine's exactly to keep every
// substream — and with it the golden outputs — bit-identical.
func (e *Engine) seedDataUser(uid int, userSrc *rng.Source) {
	var sub rng.Source
	userSrc.SplitInto(&sub, 1)
	e.mobB.SeedUser(uid, &sub)
	userSrc.SplitInto(&sub, 2)
	e.fadeB.SeedUser(uid, &sub)
	dataSrc := userSrc.Split(3)
	e.winB.SeedUser(uid, userSrc, 10)
	e.users[uid] = &dataUser{
		id:     uid,
		gain:   e.winB.GainRow(uid),
		bucket: -1,
		source: traffic.NewDataModel(dataSrc, uid, e.cfg.Data),
		macM:   mac.MustNewMachine(e.cfg.MAC),
		fch:    load.MakeVec(3),
	}
}

// seedVoiceUser creates voice user v from its parent substream, splitting
// its activity stream (1) before its mobility stream (2).
func (e *Engine) seedVoiceUser(v int, vsrc *rng.Source) {
	e.voice[v] = voiceUser{model: traffic.NewVoiceModel(vsrc.Split(1), 1.0, 1.35), cell: -1}
	var sub rng.Source
	vsrc.SplitInto(&sub, 2)
	e.voiceMob.SeedUser(v, &sub)
}

// Run executes the replication and returns its metrics. Cancelling the
// context stops the frame loop promptly (the context is checked once per
// admission frame, tens of microseconds of work) and returns the context's
// error; the partially accumulated metrics are discarded. A resumed engine
// (Checkpoint.Resume) continues from its checkpointed frame; a fresh one
// starts at 0.
func (e *Engine) Run(ctx context.Context) (*Metrics, error) {
	defer e.Close()
	frames := int(math.Ceil(e.cfg.SimTime / e.cfg.FrameLength))
	for f := e.frame; f < frames; f++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.now = float64(f) * e.cfg.FrameLength
		e.step()
		// step advanced e.frame to f+1; a checkpoint is always of a frame
		// boundary, after the frame's trace records were emitted.
		if e.cfg.CheckpointEvery > 0 && e.cfg.CheckpointSink != nil && e.frame%e.cfg.CheckpointEvery == 0 {
			if err := e.cfg.CheckpointSink(e.frame, e.Checkpoint); err != nil {
				return nil, fmt.Errorf("sim: checkpoint at frame %d: %w", e.frame, err)
			}
		}
	}
	e.metrics.QueueLength.Finish(e.now)
	e.metrics.ObservedTime = e.cfg.SimTime - e.cfg.WarmupTime
	if e.rec != nil {
		if err := e.rec.Flush(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if e.solveRec != nil {
		if err := e.solveRec.Err(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	return e.metrics, nil
}

// step advances the system by one frame.
func (e *Engine) step() {
	dt := e.cfg.FrameLength
	if e.traceCells != nil {
		clear(e.traceCells)
	}
	e.applyFaults()
	e.updateUsers()
	e.migrateQueued()
	e.generateTraffic(dt)
	e.accumulateLoads()
	e.serveBursts(dt)
	e.admit()
	e.collect()
	e.emitTrace()
	e.frame++
}

// Fan-out grains of the per-frame pool passes, in voice users, data users
// and bursts per task.
const (
	voiceChunk = 64
	userChunk  = 32
	burstChunk = 16
)

// chunk returns task's span of s when s is split into size-element tasks.
func chunk[T any](s []T, task, size int) []T {
	lo := task * size
	return s[lo:min(lo+size, len(s))]
}

// tasks returns the number of size-element tasks covering n elements.
func tasks(n, size int) int { return (n + size - 1) / size }

// advanceVoice advances one voice user. The serving cell is a pure function
// of the position, so a paused user (zero travel) keeps its cell without
// the nearest-cell search; the -1 sentinel from populate forces the first
// evaluation. The search expands spatial-index bucket rings instead of
// scanning every cell; the index returns the very cell the linear scans
// would, tie-breaks included. The fast path compares squared distances
// (saving one sqrt per candidate); the exact reference path keeps the
// metre-domain comparison so goldens cannot shift on sqrt-rounding ties.
// Under a fault schedule a voice user on an out-of-service cell hands off
// to the nearest surviving cell; paused users re-run the search on frames
// where the down mask changed, so recovery hands them cleanly back.
func (e *Engine) advanceVoice(i int, dt float64) {
	v := &e.voice[i]
	v.model.Advance(dt)
	travelled := e.voiceMob.Advance(i, dt)
	if travelled <= 0 && v.cell >= 0 && !e.faultDirty {
		return
	}
	pos := e.voiceMob.Position(i)
	if e.cfg.ExactPHY {
		v.cell = e.spix.NearestCell(pos)
	} else {
		v.cell = e.spix.NearestCellSq(pos)
	}
	if e.anyDown && e.fault.Down[v.cell] {
		v.cell = e.nearestUpCell(pos, v.cell)
	}
}

// updateUsers advances every user by one frame in one pass over the pool:
// mobility, channel state, pilot sets and MAC state for the data users,
// then voice activity, position and serving cell for the voice users (a
// city preset carries tens of thousands of them). Each user's new state is
// a pure function of its own previous state (own mobility model, own fading
// and shadowing streams), and no data user's update reads a voice user, so
// the updates fan out in chunks, data users first and then voice users as
// in populate, in either frame mode, and the result is identical for any
// worker count.
func (e *Engine) updateUsers() {
	e.pool.Run(tasks(len(e.users), userChunk)+tasks(len(e.voice), voiceChunk), e.userTask)
}

// updateUserChunk is updateUsers' pool task: a chunk of data users, on
// worker w's distance row, or past the data chunks a chunk of voice users.
func (e *Engine) updateUserChunk(w, task int) {
	if dataTasks := tasks(len(e.users), userChunk); task >= dataTasks {
		lo := (task - dataTasks) * voiceChunk
		for v := lo; v < min(lo+voiceChunk, len(e.voice)); v++ {
			e.advanceVoice(v, e.cfg.FrameLength)
		}
		return
	}
	dist := e.workers[w].dist
	for _, u := range chunk(e.users, task, userChunk) {
		e.updateUser(u, e.cfg.FrameLength, dist)
	}
}

// generateTraffic advances the data sources and enqueues new burst requests.
func (e *Engine) generateTraffic(dt float64) {
	for _, u := range e.users {
		req := u.source.Advance(dt, e.now)
		if req == nil {
			continue
		}
		u.queuedReq = req
		u.queuedCell = u.hostCell
		e.queues[u.hostCell].Push(req)
		if e.now >= e.cfg.WarmupTime {
			e.metrics.BurstsGenerated++
		}
	}
}

// accumulateLoads recomputes the per-cell resource ledger for this frame
// from the background (voice + FCH) channels and the ongoing bursts. The
// forward link starts every cell at its common-channel overhead and charges
// each talking voice user a voice channel's power. The reverse link is
// tracked in rise-over-thermal units: the noise floor contributes 1, the
// budget is ReverseRiseLimit, and a talking voice user raises its serving
// cell by a fixed share of that budget.
func (e *Engine) accumulateLoads() {
	base, voiceShare := e.cfg.CommonOverheadFrac*e.cfg.MaxCellPowerW, e.cfg.VoiceChannelW
	if e.cfg.Direction == Reverse {
		base, voiceShare = 1, (e.cfg.ReverseRiseLimit-1)/40
	}
	e.loads.Fill(base)
	for _, v := range e.voice {
		// cell < 0 is the pre-first-frame sentinel; step() always runs
		// updateUsers before the loads are accumulated.
		if v.model.Active() && v.cell >= 0 {
			e.loads.Add(v.cell, voiceShare)
		}
	}
	for _, u := range e.users {
		e.loads.AddVec(u.fch)
	}
	// Ongoing bursts occupy the resource they were granted.
	for _, b := range e.bursts {
		e.loads.AddVec(b.load)
	}
}

// serveBursts delivers bits on the active bursts and retires completed ones.
// The per-burst rates come first (burstRates); the accounting below then
// runs in burst order, so metrics and completions do not depend on how the
// rate pass was split.
func (e *Engine) serveBursts(dt float64) {
	e.burstRates()
	remaining := e.bursts[:0]
	for _, b := range e.bursts {
		u := b.user
		if b.setupRemaining > 0 {
			b.setupRemaining -= dt
			b.serviceTime += dt
			remaining = append(remaining, b)
			continue
		}
		rate := e.cfg.RatePlan.SCHBitRate(b.ratio, b.bp)
		delivered := rate * dt
		if delivered > b.remaining {
			delivered = b.remaining
		}
		b.remaining -= delivered
		b.servedBits += delivered
		b.serviceTime += dt
		if e.now >= e.cfg.WarmupTime {
			e.metrics.BitsDelivered += delivered
		}
		u.macM.Touch(e.now)
		if b.remaining <= 0 {
			e.completeBurst(b)
			continue
		}
		remaining = append(remaining, b)
	}
	e.bursts = remaining
}

// burstRates sets bp on every burst past its set-up delay. A burst's rate is
// a pure function of its user's mean CSI (fixed by updateUsers) and the
// user's fast fading at e.now, so the pass fans out over the pool in chunks
// and the result is identical for any worker count.
func (e *Engine) burstRates() {
	e.pool.Run(tasks(len(e.bursts), burstChunk), e.rateTask)
}

// rateBurstChunk is burstRates' pool task: it evaluates the instantaneous
// VTAOC throughput, which rides the fast fading, for the task's bursts that
// are past their set-up delay.
func (e *Engine) rateBurstChunk(_, task int) {
	for _, b := range chunk(e.bursts, task, burstChunk) {
		if b.setupRemaining > 0 {
			continue
		}
		u := b.user
		instCSI := u.meanCSIdB + mathx.DB(math.Max(e.fadeB.PowerAt(u.id, e.now), 1e-12))
		b.bp = e.phy.Throughput(instCSI)
	}
}

// completeBurst records statistics for a finished burst and releases the user.
func (e *Engine) completeBurst(b *burst) {
	u := b.user
	req := u.queuedReq
	if req != nil {
		delay := e.now + e.cfg.FrameLength - req.ArrivalTime
		if e.traceCells != nil {
			// The trace keeps warm-up samples: transients are its purpose.
			tc := &e.traceCells[u.queuedCell]
			tc.completed++
			tc.delaySum += delay
		}
		if e.now >= e.cfg.WarmupTime {
			e.metrics.BurstDelay.Add(delay)
			e.metrics.BurstsCompleted++
			if b.serviceTime > 0 {
				avgRate := b.servedBits / b.serviceTime
				e.metrics.ServedRate.Add(avgRate)
				if avgRate >= e.cfg.CoverageRateFraction*e.cfg.RatePlan.FCHBitRate() {
					e.metrics.CoveredBursts++
				}
			}
		}
	}
	u.queuedReq = nil
	u.source.BurstDone()
	u.macM.Touch(e.now)
}

// admit runs the measurement and scheduling sub-layers for every cell with
// queued requests, as one gather → solve → commit routine per cell
// (solveSlot, then commitSlot) in the configured frame mode:
//
//   - sequential (the legacy intra-frame-coupled mode): each cell is solved
//     and committed before the next, against the live ledger, so cell k's
//     admissible region already reflects the grants cells before it made
//     earlier in the same frame;
//   - snapshot (the paper-faithful mode): every cell is solved against the
//     immutable frame-start ledger, one worker-pool task per active cell
//     (the pool's shared task counter balances uneven cells), and the
//     grants are committed afterwards in cell-index order. No cell's
//     solution reads another cell's grant, so the output does not depend on
//     the worker count; the fixed commit order makes it byte-identical as
//     well. Cells may jointly overshoot a shared budget within the frame —
//     exactly the paper's semantics, absorbed next frame when the ledger is
//     rebuilt from the granted bursts.
//
// The active cells are collected up front: a cell's gather and commit touch
// only its own queue, and the down mask is fixed for the frame. All
// per-cell working storage lives in the workers' scratch sets and region
// builders, and the JABA-SD schedulers carry their own warm
// ilp.Solver/greedy scratch, so the steady-state admission loop is
// allocation-free through the integer programme up to the returned
// per-cell assignment.
func (e *Engine) admit() {
	e.active = e.active[:0]
	for k, q := range e.queues {
		if q.Len() > 0 && !e.cellDown(k) {
			e.active = append(e.active, k)
		}
	}
	if len(e.active) == 0 {
		return
	}
	if e.cfg.FrameMode.normalize() != FrameSnapshot {
		// The commits mutate the ledger storage in place, so each cell
		// solves against the grants of the cells before it.
		loads := e.loads.Values()
		for i, k := range e.active {
			e.solveSlot(e.workers[0], &e.grants[i], k, loads)
			e.commitSlot(&e.grants[i])
		}
		return
	}
	e.pool.Run(len(e.active), e.solveTask)
	for i := range e.active {
		e.commitSlot(&e.grants[i])
	}
}

// solveTaskCells is the snapshot solve phase's pool task: it solves active
// cell t on worker w into grants[t] against the frame's loads, which stay
// immutable until the commit loop.
func (e *Engine) solveTaskCells(w, t int) {
	e.solveSlot(e.workers[w], &e.grants[t], e.active[t], e.loads.Values())
}

// solveSlot gathers cell k's queue, reseeds a snapshot worker's scheduler
// for the (frame, cell) pair, builds the admissible region against loads,
// solves the cell's scheduling problem and captures the outcome in g. It
// never writes the load ledger, so snapshot workers can run it
// concurrently on distinct cells.
func (e *Engine) solveSlot(fw *frameWorker, g *cellGrants, k int, loads []float64) {
	g.cell = k
	g.skipped = false
	g.fallback = false
	g.offered = 0
	g.users = g.users[:0]
	g.ratios = g.ratios[:0]
	g.prob = nil
	e.gatherCell(k, &fw.scratch, loads)
	g.offered = len(fw.scratch.reqs)
	if fw.seeder != nil {
		fw.seeder.SeedCell(uint64(e.frame), uint64(k))
	}
	assignment, err := e.solveCell(k, fw, loads)
	if err != nil {
		// Skip this cell this frame rather than abort the run, but leave a
		// trace: the queue keeps the requests, so the cell is retried next
		// frame (noteSolve counts the recovery when it lands).
		g.skipped = true
		return
	}
	g.fallback = assignment.Fallback
	if e.solveRec != nil {
		g.prob = replay.CopyProblem(e.frame, e.now, k, fw.scratch.reqs, fw.scratch.region, assignment.Ratios)
	}
	for j, m := range assignment.Ratios {
		if m > 0 {
			g.users = append(g.users, fw.scratch.users[j])
			g.ratios = append(g.ratios, m)
		}
	}
}

// commitSlot applies one cell's captured solve outcome on the engine's
// sequential section: telemetry, robustness counters, the solve-trace
// record, then the grants themselves.
func (e *Engine) commitSlot(g *cellGrants) {
	e.traceSolve(g.cell, g.offered, g.skipped, g.fallback)
	if g.skipped {
		e.noteSolve(g.cell, true, false)
		return
	}
	e.noteSolve(g.cell, false, g.fallback)
	if g.prob != nil {
		e.solveRec.Emit(g.prob)
		g.prob = nil
	}
	e.commitCell(g.cell, e.queues[g.cell], g.users, g.ratios)
}

// noteSolve folds one attempted cell-solve's outcome into the robustness
// counters: a skip marks the cell pending retry, a success after a skip is
// a recovered retry, and a budget-capped exact solve that degraded to the
// greedy schedule counts as a fallback. Called only from the sequential
// commit sections, so the counters are deterministic for any worker count.
func (e *Engine) noteSolve(k int, skipped, fallback bool) {
	if skipped {
		e.metrics.SkippedCells++
		e.retryPend[k] = true
		return
	}
	if e.retryPend[k] {
		e.retryPend[k] = false
		e.metrics.SolveRetries++
	}
	if fallback {
		e.metrics.FallbackSolves++
	}
}

// traceSolve records one cell's admission outcome for the telemetry trace:
// the number of requests gathered and whether the solve was abandoned or
// degraded to the greedy fallback. Cells that admit does not solve (no
// queued request, or out of service) stay at trace.SolveIdle.
func (e *Engine) traceSolve(cell, offered int, skipped, fallback bool) {
	if e.traceCells == nil {
		return
	}
	tc := &e.traceCells[cell]
	tc.offered = offered
	switch {
	case skipped:
		tc.solve = trace.SolveSkipped
	case fallback:
		tc.solve = trace.SolveFallback
	default:
		tc.solve = trace.SolveOK
	}
}

// gatherCell reads cell k's queue into the scratch working set: each entry
// is its user's queuedReq (generateTraffic pushes it, a grant or
// migrateQueued removes it, and the burst completes only after the grant)
// and becomes a core.Request plus its direction-specific measurement
// attachment. loads is the per-cell ledger the reverse-link pilot reports
// normalise against — the live ledger in sequential mode, the frame-start
// ledger in snapshot mode (identical storage; snapshot mode simply defers
// the mutations). The reverse requests' pilot reports are built in s's own
// per-request Vecs, so concurrent workers never share them.
func (e *Engine) gatherCell(k int, s *admitScratch, loads []float64) {
	s.reqs = s.reqs[:0]
	s.users = s.users[:0]
	s.fwd = s.fwd[:0]
	s.rev = s.rev[:0]
	s.csi = s.csi[:0]
	// First pass: collect the users' CSI, so the physical layer evaluates
	// the whole cell in one batched call over the (tabulated) mode ladder.
	// AverageThroughput is a pure function, so the two-pass shape returns
	// exactly the per-item values the interleaved loop produced.
	for _, item := range e.queues[k].Items() {
		u := e.users[item.UserID]
		s.users = append(s.users, u)
		s.csi = append(s.csi, u.meanCSIdB)
	}
	s.bp = e.avgThroughputBatch(s.bp, s.csi)
	for i, u := range s.users {
		item := u.queuedReq
		bp := s.bp[i]
		wait := e.now - item.ArrivalTime
		s.reqs = append(s.reqs, core.Request{
			UserID:        u.id,
			SizeBits:      item.SizeBits,
			WaitingTime:   wait,
			SetupDelay:    u.macM.SetupDelayNow(e.now),
			Priority:      item.Priority,
			AvgThroughput: bp,
			MaxRatio:      e.cfg.RatePlan.MaxUsefulRatio(item.SizeBits, bp, e.cfg.MinBurstDuration),
		})
		switch e.cfg.Direction {
		case Forward:
			// The request shares the user's FCH ledger: the region builder
			// only reads it, and the region is consumed within this frame.
			s.fwd = append(s.fwd, measurement.ForwardRequest{UserID: u.id, FCHPower: u.fch, Alpha: 1})
		case Reverse:
			zeta := 4.0
			r := len(s.rev)
			if r == len(s.revPilot) {
				s.revPilot = append(s.revPilot, load.MakeVec(3))
				s.scrm = append(s.scrm, load.MakeVec(measurement.SCRMMaxPilots))
			}
			revPilot, scrm := &s.revPilot[r], &s.scrm[r]
			revPilot.Reset()
			for i := 0; i < u.fch.Len(); i++ {
				c, x := u.fch.At(i)
				revPilot.Set(c, x/(zeta*math.Max(loads[c], 1)))
			}
			// The pilots are the strongest cellular.TopPilots (at least
			// SCRMMaxPilots, see windowed.go) strongest-first, so their
			// first SCRMMaxPilots entries are exactly the SCRM payload.
			scrm.Reset()
			for i, pm := range u.pilots {
				if i >= measurement.SCRMMaxPilots {
					break
				}
				scrm.Set(int(pm.Cell), pm.EcIo)
			}
			s.rev = append(s.rev, measurement.ReverseRequest{
				UserID:       u.id,
				HostCell:     u.hostCell,
				ReversePilot: *revPilot,
				SCRM:         measurement.SCRM{Pilots: *scrm},
				Zeta:         zeta,
				Alpha:        1,
			})
		}
	}
}

// avgThroughputBatch fills dst with the physical layer's average throughput
// for each CSI value. The adaptive coder evaluates the whole vector in one
// batched pass over the (tabulated) ladder; other phy implementations (the
// fixed-rate ablation) fall back to the scalar call per element. Either way
// every element equals e.phy.AverageThroughput of its input.
func (e *Engine) avgThroughputBatch(dst, csi []float64) []float64 {
	if c, ok := e.phy.(*vtaoc.Coder); ok {
		return c.AverageThroughputBatch(dst, csi)
	}
	if cap(dst) < len(csi) {
		dst = make([]float64, len(csi))
	}
	dst = dst[:len(csi)]
	for i, v := range csi {
		dst[i] = e.phy.AverageThroughput(v)
	}
	return dst
}

// solveCell builds cell k's admissible region for the requests gathered
// into fw's scratch against the given ledger, with fw's region builder, and
// solves the scheduling problem with fw's scheduler. The returned
// assignment indexes fw.scratch.users.
func (e *Engine) solveCell(k int, fw *frameWorker, loads []float64) (core.Assignment, error) {
	s := &fw.scratch
	var region measurement.Region
	var err error
	switch e.cfg.Direction {
	case Forward:
		maxLoad := e.cfg.MaxCellPowerW
		if e.fault != nil {
			// Degraded cell: the forward budget is the derated transmit
			// power. Derate is 1 for healthy cells (exact multiply by 1, no
			// bit drift).
			maxLoad *= e.fault.Derate[k]
		}
		state := measurement.ForwardState{
			CurrentLoad: loads,
			MaxLoad:     maxLoad,
			GammaS:      e.cfg.RatePlan.GammaS,
		}
		region, err = fw.regionB.Forward(state, s.fwd)
	case Reverse:
		state := measurement.ReverseState{
			TotalReceived: loads,
			MaxReceived:   e.cfg.ReverseRiseLimit,
			GammaS:        e.cfg.RatePlan.GammaS,
			ShadowMargin:  e.cfg.ShadowMargin,
		}
		region, err = fw.regionB.Reverse(state, s.rev)
	}
	if err != nil {
		return core.Assignment{}, err
	}
	s.region = region
	return fw.sched.Schedule(core.Problem{
		Requests:  s.reqs,
		Region:    region,
		MaxRatio:  e.cfg.RatePlan.MaxSpreadingRatio,
		Objective: e.cfg.Objective,
		MAC:       &e.cfg.MAC,
	})
}

// commitCell applies cell k's grants: granted requests leave the queue,
// bursts start with their per-cell footprint frozen, and the live ledger
// and admission statistics are updated. users[j] receives ratios[j]; zero
// ratios are no-ops.
func (e *Engine) commitCell(k int, queue *traffic.Queue, users []*dataUser, ratios []int) {
	for j, m := range ratios {
		if m <= 0 {
			continue
		}
		if e.traceCells != nil {
			e.traceCells[k].admitted++
			e.traceCells[k].grantedRatio += m
		}
		u := users[j]
		item := u.queuedReq
		queue.Remove(item)
		// Freeze the burst's per-cell footprint at grant time: the user's
		// FCH footprint is rebuilt every frame, so the burst needs its own
		// copy.
		granted := u.fch.CloneScaled(e.cfg.RatePlan.GammaS * float64(m))
		b := &burst{
			user:           u,
			ratio:          m,
			remaining:      item.SizeBits,
			load:           granted,
			setupRemaining: u.macM.SetupDelayNow(e.now),
		}
		e.bursts = append(e.bursts, b)
		e.loads.AddVec(granted)
		if e.now >= e.cfg.WarmupTime {
			e.metrics.AssignedRatio.Add(float64(m))
			e.metrics.AdmissionWait.Add(e.now - item.ArrivalTime)
		}
	}
}

// budget is a cell's nominal resource budget in the configured direction's
// ledger units: transmit power (W) on the forward link, rise over thermal on
// the reverse link. Cell loads are reported as a fraction of it.
func (e *Engine) budget() float64 {
	if e.cfg.Direction == Reverse {
		return e.cfg.ReverseRiseLimit
	}
	return e.cfg.MaxCellPowerW
}

// collect records per-frame statistics.
func (e *Engine) collect() {
	if e.now < e.cfg.WarmupTime {
		return
	}
	budget := e.budget()
	for k := 0; k < e.layout.NumCells(); k++ {
		e.metrics.CellLoad.Add(mathx.Clamp(e.loads.Get(k)/budget, 0, 2))
	}
	total := 0
	for _, q := range e.queues {
		total += q.Len()
	}
	e.metrics.QueueLength.Observe(e.now, float64(total))
}

// emitTrace appends one telemetry record per cell for a sampled frame. It
// runs at the end of step, after serve/admit/collect, so the records see
// the frame's completed bursts, the committed grants and the end-of-frame
// queue lengths and loads.
func (e *Engine) emitTrace() {
	if e.rec == nil || !e.rec.Sampled(e.frame) {
		return
	}
	for _, b := range e.bursts {
		e.traceCells[b.user.queuedCell].active++
	}
	budget := e.budget()
	for k := range e.traceCells {
		tc := &e.traceCells[k]
		solve := tc.solve
		if solve == "" {
			solve = trace.SolveIdle
		}
		down := 0
		if e.cellDown(k) {
			down = 1
		}
		e.rec.Emit(trace.Record{
			Frame:        e.frame,
			TimeS:        e.now,
			Cell:         k,
			Offered:      tc.offered,
			Admitted:     tc.admitted,
			GrantedRatio: tc.grantedRatio,
			Completed:    tc.completed,
			DelaySumS:    tc.delaySum,
			QueueLen:     e.queues[k].Len(),
			ActiveBursts: tc.active,
			Load:         e.loads.Get(k) / budget,
			Down:         down,
			Spill:        tc.spill,
			Solve:        solve,
		})
	}
}

// userByID finds a data user by identifier. populate and checkpoint restore
// keep users[id].id == id, so the lookup is an index with a bounds check.
func (e *Engine) userByID(id int) *dataUser {
	if id < 0 || id >= len(e.users) {
		return nil
	}
	return e.users[id]
}

// Run executes a single replication of the scenario described by cfg. The
// context cancels the run mid-flight (checked every frame).
func Run(ctx context.Context, cfg Config) (*Metrics, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx)
}
