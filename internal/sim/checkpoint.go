package sim

// Versioned checkpoint/resume of the full engine state. A checkpoint is
// taken at a frame boundary (after step() returns) and records everything
// the next frame reads that is not a pure function of the configuration:
// the master and per-entity draw streams, the SoA channel state, each data
// user's measurement snapshot (paused users carry it across frames), the
// MAC machines, the traffic sources, the queue contents, the ongoing bursts
// and the accumulated metrics. Everything else — distance rows, the load
// ledger, the admissible regions, the Jakes fading table, solver warm
// state — is per-frame scratch or static after seeding, rebuilt
// deterministically by NewEngine + the next step().
//
// Resume rebuilds the engine from the stored configuration (populate
// consumes exactly the draws it consumed originally, recreating every
// substream and alias) and then overwrites the mutable state in place, so
// slices handed out by the batches (gain rows) keep aliasing the restored
// storage. Each user's window slot map is not stored: it is the candidate
// list of the user's stored spatial bucket. A run continued from a
// checkpoint at frame k is byte-identical to the uninterrupted run from
// frame k on — metrics and trace included — which
// TestCheckpointResumeByteIdentical gates.
//
// The stored configuration is authoritative for everything semantic; the
// caller may only change the non-semantic execution knobs (FrameParallel,
// TraceEvery, CheckpointEvery and the sinks) before resuming. Compatible
// compares the normalised JSON of the stored and the resuming
// configuration, both decoded by the running build, and refuses a mismatch
// with a precise error instead of silently diverging. The stored
// configuration is decoded strictly (Config.UnmarshalJSON), so a key this
// build cannot represent is refused by name.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"jabasd/internal/cellular"
	"jabasd/internal/checkpoint"
	"jabasd/internal/core"
)

// SemanticConfigJSON encodes the scenario-defining part of the
// configuration, so equal encodings are one scenario (to resume a checkpoint
// or reuse an experiment's run): the knobs that provably never change
// results (worker counts, telemetry and checkpoint cadence — the engine's
// determinism tests lock that in) are zeroed, and the empty-means-default
// fields normalised so "" and the spelled-out default encode identically.
func SemanticConfigJSON(cfg Config) ([]byte, error) {
	cfg.FrameParallel = 0
	cfg.TraceEvery = 0
	cfg.CheckpointEvery = 0
	cfg.FrameMode = cfg.FrameMode.normalize()
	if cfg.Scheduler == "" {
		cfg.Scheduler = SchedulerJABASD
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: encoding config: %w", err)
	}
	return b, nil
}

// Checkpoint serialises the engine's complete state to w in the versioned
// container format of internal/checkpoint. It must be called at a frame
// boundary — between Run frames via Config.CheckpointSink, or after Run
// returns — never from inside a frame.
func (e *Engine) Checkpoint(w io.Writer) error {
	cfgJSON, err := json.Marshal(e.cfg)
	if err != nil {
		return fmt.Errorf("sim: marshaling config: %w", err)
	}
	c := checkpoint.NewWriter(w)
	c.Section("config")
	c.Bytes(&cfgJSON)
	return e.state(c)
}

// Checkpoint is a checkpoint opened for resuming: the configuration has
// been decoded and verified, the state sections are still pending. The
// two-phase API lets the caller adjust the non-semantic execution knobs
// (attach a trace sink, change the worker count) before Resume rebuilds
// the engine.
type Checkpoint struct {
	cfg  Config
	rd   *checkpoint.Codec
	used bool
}

// ReadCheckpoint opens a checkpoint stream and decodes its configuration.
// The reader must deliver the bytes Engine.Checkpoint wrote; they are
// consumed incrementally, so r should stay readable until Resume returns.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	rd, err := checkpoint.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("sim: opening checkpoint: %w", err)
	}
	var cfgJSON []byte
	rd.Section("config")
	rd.Bytes(&cfgJSON)
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint config: %w", err)
	}
	c := &Checkpoint{rd: rd}
	if err := json.Unmarshal(cfgJSON, &c.cfg); err != nil {
		return nil, fmt.Errorf("sim: checkpoint config does not decode: %w", err)
	}
	return c, nil
}

// ReadCheckpointFile opens a checkpoint file. The whole file is read into
// memory, so the file may be replaced while the resume is in flight.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint: %w", err)
	}
	return ReadCheckpoint(bytes.NewReader(b))
}

// Config returns the configuration the checkpointed run was using. Callers
// typically take it, adjust the non-semantic execution knobs and pass it to
// Resume.
func (c *Checkpoint) Config() Config { return c.cfg }

// Compatible reports whether cfg could resume this checkpoint: it must be
// semantically identical to the stored configuration. It does not consume
// the checkpoint, so callers can validate a resume before committing to it.
func (c *Checkpoint) Compatible(cfg Config) error {
	want, err := SemanticConfigJSON(c.cfg)
	if err != nil {
		return err
	}
	got, err := SemanticConfigJSON(cfg)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("sim: resume config differs from the checkpoint's scenario (only FrameParallel, TraceEvery, CheckpointEvery and the sinks may change across a resume)")
	}
	return nil
}

// Resume rebuilds an engine from the checkpoint under cfg and restores the
// saved state into it. cfg must be semantically identical to the stored
// configuration — only FrameParallel, TraceEvery, CheckpointEvery and the
// sinks may differ — otherwise Resume refuses with an error naming
// the mismatch. Resume consumes the checkpoint; it can be called once.
func (c *Checkpoint) Resume(cfg Config) (*Engine, error) {
	if c.used {
		return nil, fmt.Errorf("sim: checkpoint already resumed")
	}
	c.used = true
	if err := c.Compatible(cfg); err != nil {
		return nil, err
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.state(c.rd); err != nil {
		e.Close()
		return nil, fmt.Errorf("sim: resuming: %w", err)
	}
	return e, nil
}

// state lists every checkpointed field of the engine once, section by
// section, in stream order: writing appends each field, reading overwrites
// it in an engine freshly built from the stored configuration. The checks
// of the decoded values and the work only a restore needs — rebuilding the
// fault mask, the windows and the pilot slots, re-queuing the pending
// requests and allocating the bursts — run when c is reading, so the
// writer records the engine as it is. It returns the codec's first error.
func (e *Engine) state(c *checkpoint.Codec) error {
	c.Section("engine")
	c.Int(&e.frame)
	c.F64(&e.now)
	// Fault runtime: only the load-event cursor is stored — the down/derate
	// state is a pure function of simulated time, reconstructed on resume —
	// plus the pending-retry marks feeding Metrics.SolveRetries.
	cursor := 0
	if e.fault != nil {
		cursor = e.fault.LoadCursor()
	}
	c.Int(&cursor)
	for k := range e.retryPend {
		c.Bool(&e.retryPend[k])
	}
	e.src.Persist(c)
	nCells, width := e.layout.NumCells(), e.winB.Width()
	nUsers, nVoice, cells, win := len(e.users), len(e.voice), nCells, width
	c.Int(&nUsers)
	c.Int(&nVoice)
	c.Int(&cells)
	c.Int(&win)
	if c.Reading() && c.Err() == nil {
		frames := int(math.Ceil(e.cfg.SimTime / e.cfg.FrameLength))
		switch {
		case e.frame < 0 || e.frame > frames:
			c.Fail("frame %d outside the scenario's 0..%d", e.frame, frames)
		case nUsers != len(e.users) || nVoice != len(e.voice) || cells != nCells || win != width:
			c.Fail("population (%d users, %d voice, %d cells, window %d) does not match the scenario (%d, %d, %d, %d)",
				nUsers, nVoice, cells, win, len(e.users), len(e.voice), nCells, width)
		case e.fault != nil:
			// Rebuild the down/derate state as of the checkpointed run's last
			// applyFaults: the mask is a pure function of simulated time, so
			// advancing to the last completed frame's time reproduces it — and
			// with it the next frame's mask-change flag — exactly. The load
			// cursor is the one piece of fault state that is not (each event
			// fires once), hence the stored index.
			if e.frame > 0 {
				e.fault.Advance(float64(e.frame-1) * e.cfg.FrameLength)
			}
			if err := e.fault.SetLoadCursor(cursor); err != nil {
				c.Fail("%v", err)
			}
		case cursor != 0:
			c.Fail("%d load events applied but the scenario has no fault schedule", cursor)
		}
	}

	// Scheduler stream state: only the sequential-mode Random scheduler
	// carries a semantic stream across frames (snapshot workers reseed
	// per (frame, cell) via core.CellSeeder, so their clones hold none).
	c.Section("sched")
	r, random := e.scheduler.(*core.Random)
	has := random && e.cfg.FrameMode.normalize() == FrameSequential
	c.Bool(&has)
	switch {
	case !has:
	case !random:
		c.Fail("random-scheduler state stored but the scenario's scheduler is %s", e.scheduler.Name())
	default:
		r.Src.Persist(c)
	}

	c.Section("mobility")
	e.mobB.Persist(c)

	// In place: u.gain keeps aliasing the restored storage.
	c.Section("channel")
	e.winB.Persist(c)

	c.Section("users")
	maxPilots := min(width, cellular.TopPilots) // the pilot kernels keep no more
	for _, u := range e.users {
		np := len(u.pilots)
		c.Int(&np)
		if c.Reading() {
			if np < 0 || np > maxPilots {
				c.Fail("user %d has %d pilots, more than its window of %d cells keeps (%d)", u.id, np, width, maxPilots)
				break
			}
			u.pilots = slices.Grow(u.pilots[:0], np)[:np]
		}
		for i := range u.pilots {
			// The slot is not stored: restorePilots rebuilds it from the
			// window. The cell is range-checked before it is narrowed.
			pm := &u.pilots[i]
			cell := int(pm.Cell)
			c.Int(&cell)
			if c.Reading() {
				if cell < 0 || cell >= nCells {
					c.Fail("user %d pilot cell %d outside the cells 0..%d or the user's window", u.id, cell, nCells-1)
					break
				}
				pm.Cell = int32(cell)
			}
			c.F64(&pm.EcIo)
			c.F64(&pm.EcIoDB)
		}
		c.Ints(&u.active)
		c.Ints(&u.reduced)
		c.Int(&u.hostCell)
		c.Int(&u.bucket)
		c.F64(&u.meanCSIdB)
		u.fch.Persist(c)
		if c.Reading() {
			e.restoreWindow(c, u)
			e.restorePilots(c, u)
		}
		c.Int(&u.queuedCell)
		u.macM.Persist(c)
		u.source.Persist(c)
		if c.Reading() {
			u.queuedReq = u.source.Pending()
		}
		if c.Err() != nil {
			break
		}
	}

	c.Section("voice")
	for i := range e.voice {
		v := &e.voice[i]
		v.model.Persist(c)
		e.voiceMob.PersistUser(c, i)
		c.Int(&v.cell)
		if c.Reading() && (v.cell < -1 || v.cell >= nCells) {
			c.Fail("voice user cell %d out of range", v.cell)
			break
		}
	}

	// Every queue entry is its user's pending request, so a queue is stored
	// as its entries' user ids and resume pushes each user's restored
	// request. held marks the users whose request is queued or in service.
	c.Section("queues")
	var ids []int
	var held []bool
	if c.Reading() {
		held = make([]bool, len(e.users))
	}
	for k, q := range e.queues {
		ids = ids[:0]
		for _, it := range q.Items() {
			ids = append(ids, it.UserID)
		}
		c.Ints(&ids)
		if c.Reading() {
			e.restoreQueue(c, k, ids, held)
		}
	}

	c.Section("bursts")
	nb := len(e.bursts)
	c.Int(&nb)
	if c.Reading() {
		if nb < 0 || nb > len(e.users) {
			c.Fail("%d ongoing bursts, users %d", nb, len(e.users))
			nb = 0
		}
		for range nb {
			e.bursts = append(e.bursts, new(burst))
		}
	}
	for i, b := range e.bursts {
		uid := -1
		if b.user != nil {
			uid = b.user.id
		}
		c.Int(&uid)
		if c.Reading() {
			switch b.user = e.userByID(uid); {
			case b.user == nil:
				c.Fail("burst %d names unknown user %d", i, uid)
			case b.user.queuedReq == nil:
				c.Fail("burst %d serves user %d, which has no pending request", i, uid)
			case b.user.queuedCell < 0 || b.user.queuedCell >= nCells:
				c.Fail("burst %d serves user %d, whose request was queued at cell %d outside 0..%d", i, uid, b.user.queuedCell, nCells-1)
			case held[uid]:
				c.Fail("burst %d serves user %d, whose request is already queued or in service", i, uid)
			default:
				held[uid] = true
			}
		}
		c.Int(&b.ratio)
		c.F64(&b.remaining)
		c.F64(&b.setupRemaining)
		c.F64(&b.servedBits)
		c.F64(&b.serviceTime)
		b.load.Persist(c)
	}
	if c.Reading() {
		for _, u := range e.users {
			if u.queuedReq != nil && !held[u.id] {
				c.Fail("user %d has a pending request that is neither queued nor in service", u.id)
			}
		}
	}

	c.Section("metrics")
	m := e.metrics
	m.BurstDelay.Persist(c)
	m.AdmissionWait.Persist(c)
	m.ServedRate.Persist(c)
	m.CellLoad.Persist(c)
	m.QueueLength.Persist(c)
	m.AssignedRatio.Persist(c)
	c.I64(&m.BurstsGenerated)
	c.I64(&m.BurstsCompleted)
	c.I64(&m.SkippedCells)
	c.I64(&m.SolveRetries)
	c.I64(&m.FallbackSolves)
	c.I64(&m.SpilloverHandoffs)
	c.I64(&m.OutageCellFrames)
	c.I64(&m.CoveredBursts)
	c.F64(&m.BitsDelivered)
	c.F64(&m.ObservedTime)

	return c.Close()
}

// restoreWindow points a resumed user's window at the candidate list of its
// stored bucket. Bucket -1 is an untargeted window, valid only for a user
// that has never advanced (a checkpoint taken before the first frame),
// whose first frame targets it.
func (e *Engine) restoreWindow(c *checkpoint.Codec, u *dataUser) {
	switch {
	case u.bucket >= 0 && u.bucket < e.spix.NumBuckets():
		u.cand = e.spix.Candidates(u.bucket)
	case u.bucket == -1 && !e.winB.Ready(u.id):
		u.cand = nil
	default:
		c.Fail("user %d window bucket %d outside the spatial index's 0..%d", u.id, u.bucket, e.spix.NumBuckets()-1)
	}
}

// restorePilots gives each of a resumed user's pilots its slot, the cell's
// position in the restored window, refusing a cell outside the window or
// listed twice: the frame-coherent pilot kernel would keep the duplicate
// and drop a real pilot.
func (e *Engine) restorePilots(c *checkpoint.Codec, u *dataUser) {
	for i := range u.pilots {
		if c.Err() != nil {
			return
		}
		pm := &u.pilots[i]
		if pm.Slot = int32(cellular.FindCell(u.cand, pm.Cell)); pm.Slot < 0 {
			c.Fail("user %d pilot cell %d outside the cells 0..%d or the user's window", u.id, pm.Cell, e.layout.NumCells()-1)
		} else if slices.ContainsFunc(u.pilots[:i], func(p cellular.PilotMeasurement) bool { return p.Slot == pm.Slot }) {
			c.Fail("user %d lists pilot cell %d twice", u.id, pm.Cell)
		}
	}
}

// restoreQueue pushes the restored pending requests of the users ids names
// onto cell k's queue, in stored order. No run of this build queues a user
// without a pending request, queues one user twice or at a cell other than
// its queuedCell, so an entry that does is refused; held marks the users
// already pushed.
func (e *Engine) restoreQueue(c *checkpoint.Codec, k int, ids []int, held []bool) {
	for _, id := range ids {
		u := e.userByID(id)
		switch {
		case c.Err() != nil:
			return
		case u == nil || u.queuedReq == nil:
			c.Fail("cell %d queues user %d, which has no pending request", k, id)
		case held[id]:
			c.Fail("user %d is queued twice", id)
		case u.queuedCell != k:
			c.Fail("cell %d queues user %d, whose request is queued at cell %d", k, id, u.queuedCell)
		default:
			held[id] = true
			e.queues[k].Push(u.queuedReq)
		}
	}
}

// Frame returns the next frame the engine will run — for a fresh engine 0,
// for a resumed one the checkpoint's frame.
func (e *Engine) Frame() int { return e.frame }

// FileCheckpointSink returns a CheckpointSink that (re)writes path on every
// checkpoint, atomically: the state is serialised to path.tmp and renamed
// over path, so a crash mid-write never leaves a truncated checkpoint
// behind.
func FileCheckpointSink(path string) func(frame int, write func(io.Writer) error) error {
	return func(frame int, write func(io.Writer) error) error {
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if err := f.Close(); err != nil {
			os.Remove(tmp)
			return err
		}
		return os.Rename(tmp, path)
	}
}
