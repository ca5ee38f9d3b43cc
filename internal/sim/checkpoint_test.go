package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"jabasd/internal/cellular"
	"jabasd/internal/channel"
	"jabasd/internal/checkpoint"
	"jabasd/internal/fault"
	"jabasd/internal/load"
	"jabasd/internal/mac"
	"jabasd/internal/mobility"
	"jabasd/internal/rng"
	"jabasd/internal/trace"
	"jabasd/internal/traffic"
)

// ckCapture is an in-memory CheckpointSink: it keeps every emitted blob,
// keyed by frame.
type ckCapture struct {
	blobs map[int][]byte
}

func (c *ckCapture) sink(frame int, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	if c.blobs == nil {
		c.blobs = make(map[int][]byte)
	}
	c.blobs[frame] = buf.Bytes()
	return nil
}

// runEngine runs cfg to completion and returns the metrics plus the
// engine's own final-state checkpoint bytes (taken after Run, a valid frame
// boundary).
func runEngine(t *testing.T, cfg Config) (*Metrics, []byte) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	m, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var final bytes.Buffer
	if err := e.Checkpoint(&final); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	return m, final.Bytes()
}

// tracesFrom filters the records at or after frame k — what a run resumed
// at k must reproduce.
func tracesFrom(records []trace.Record, k int) []trace.Record {
	out := []trace.Record{}
	for _, r := range records {
		if r.Frame >= k {
			out = append(out, r)
		}
	}
	return out
}

// resumeScenarios is the gate's covering set: metro (19-cell default-shaped)
// and city-style (windowed) maps, both frame modes, exact and fast PHY,
// plus the stateful corners (load step, reverse link, the random
// scheduler's stream).
func resumeScenarios() map[string]Config {
	metro := func() Config {
		cfg := DefaultConfig()
		cfg.Rings = 1
		cfg.SimTime = 3
		cfg.WarmupTime = 1
		cfg.FrameLength = 0.05
		cfg.DataUsersPerCell = 4
		cfg.VoiceUsersPerCell = 3
		cfg.Data.MeanReadingTimeSec = 2
		cfg.Data.MaxSizeBits = 400_000
		return cfg
	}
	city := func() Config {
		cfg := metro()
		cfg.Rings = 3
		cfg.SimTime = 1.5
		cfg.WarmupTime = 0.5
		cfg.DataUsersPerCell = 2
		cfg.VoiceUsersPerCell = 2
		cfg.PilotCells = 24
		cfg.FrameMode = FrameSnapshot
		cfg.FrameParallel = 2
		return cfg
	}
	// The city scenarios keep their "city-tiled-" names as stable test IDs;
	// they run the snapshot solve's one task per active cell like every
	// other snapshot scenario.
	scenarios := map[string]Config{}

	cfg := metro() // sequential + fast PHY + mid-run load step (E12's form)
	cfg.Faults = &fault.Schedule{Load: []fault.LoadEvent{{AtSec: 1.5, ReadingTimeSec: 1}}}
	scenarios["seq-fast-loadstep"] = cfg

	cfg = metro() // sequential + exact PHY + reverse link
	cfg.ExactPHY = true
	cfg.Direction = Reverse
	scenarios["seq-exact-reverse"] = cfg

	cfg = metro() // sequential + the one scheduler with a cross-frame stream
	cfg.Scheduler = SchedulerRandom
	cfg.SimTime = 2
	scenarios["seq-random-sched"] = cfg

	cfg = metro() // snapshot, parallel workers
	cfg.FrameMode = FrameSnapshot
	cfg.FrameParallel = 2
	scenarios["snap-fast"] = cfg

	cfg = metro() // snapshot, exact PHY
	cfg.FrameMode = FrameSnapshot
	cfg.ExactPHY = true
	cfg.SimTime = 2
	scenarios["snap-exact"] = cfg

	scenarios["city-tiled-fast"] = city()

	cfg = city() // windowed + exact PHY
	cfg.ExactPHY = true
	cfg.SimTime = 1
	scenarios["city-tiled-exact"] = cfg

	// Fault-bearing scenarios: the middle checkpoint (frame 30 of 60 for the
	// metro shape, t=1.5s) lands inside the outage window, so the gate proves
	// a resume mid-outage reconstructs the fault mask, the load cursor and
	// the spillover state byte-identically.
	cfg = metro() // sequential + centre-cell outage + flash-crowd load event
	cfg.Faults = &fault.Schedule{
		Cells: []fault.CellEvent{{Cell: 0, StartSec: 1.2, EndSec: 1.8}},
		Load:  []fault.LoadEvent{{AtSec: 1.0, ReadingTimeSec: 1}},
	}
	scenarios["seq-fast-outage"] = cfg

	cfg = metro() // snapshot + derated centre + neighbour outage
	cfg.FrameMode = FrameSnapshot
	cfg.FrameParallel = 2
	cfg.Faults = &fault.Schedule{
		Cells: []fault.CellEvent{
			{Cell: 0, StartSec: 0.8, EndSec: 2.2, Derate: 0.4},
			{Cell: 3, StartSec: 1.2, EndSec: 1.8},
		},
	}
	scenarios["snap-outage-derate"] = cfg

	cfg = city() // windowed + outage crossing the mid checkpoint
	cfg.Faults = &fault.Schedule{
		Cells: []fault.CellEvent{{Cell: 0, StartSec: 0.6, EndSec: 0.9}},
	}
	scenarios["city-tiled-outage"] = cfg

	// Requests wait in queue across frames, so the checkpoints store queue
	// entries for resume to re-push.
	scenarios["queued"] = queuedConfig()

	return scenarios
}

// TestCheckpointResumeByteIdentical is the PR's gate: for every scenario and
// for checkpoints at the first, a middle and the last frame, a run resumed
// from the checkpoint must reproduce the uninterrupted run exactly — the
// metrics struct, every telemetry record from the resume point on, and the
// final-state checkpoint bytes. It also gates that checkpointing itself is
// non-invasive: the checkpointing run's metrics and trace equal the plain
// run's.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	for name, cfg := range resumeScenarios() {
		t.Run(name, func(t *testing.T) {
			frames := int(cfg.SimTime/cfg.FrameLength + 0.5)

			// Plain reference run. CheckpointEvery matches the checkpointing
			// run so the final-state blobs' embedded configs compare equal;
			// with no sink attached nothing is emitted.
			plain := cfg
			plain.CheckpointEvery = 1
			var t0 trace.Memory
			plain.Trace = &t0
			m0, f0 := runEngine(t, plain)

			// Checkpointing run: capture a blob at every frame boundary.
			full := cfg
			var tA trace.Memory
			full.Trace = &tA
			cap := &ckCapture{}
			full.CheckpointEvery = 1
			full.CheckpointSink = cap.sink
			mA, fA := runEngine(t, full)

			if !reflect.DeepEqual(m0, mA) {
				t.Fatalf("checkpointing perturbed the run:\nplain %+v\nwith  %+v", m0, mA)
			}
			if !reflect.DeepEqual(t0.Records, tA.Records) {
				t.Fatal("checkpointing perturbed the trace")
			}
			if !bytes.Equal(f0, fA) {
				t.Fatal("checkpointing perturbed the final state")
			}

			for _, k := range []int{1, frames / 2, frames - 1} {
				blob := cap.blobs[k]
				if blob == nil {
					t.Fatalf("no checkpoint captured at frame %d", k)
				}
				c, err := ReadCheckpoint(bytes.NewReader(blob))
				if err != nil {
					t.Fatalf("k=%d: ReadCheckpoint: %v", k, err)
				}
				rcfg := c.Config() // keeps CheckpointEvery=1; no sink => no emission
				var tB trace.Memory
				rcfg.Trace = &tB
				eB, err := c.Resume(rcfg)
				if err != nil {
					t.Fatalf("k=%d: Resume: %v", k, err)
				}
				if eB.Frame() != k {
					t.Fatalf("k=%d: resumed engine reports frame %d", k, eB.Frame())
				}
				mB, err := eB.Run(context.Background())
				if err != nil {
					t.Fatalf("k=%d: resumed Run: %v", k, err)
				}
				if !reflect.DeepEqual(mA, mB) {
					t.Errorf("k=%d: resumed metrics differ:\nfull    %+v\nresumed %+v", k, mA, mB)
				}
				if want := tracesFrom(tA.Records, k); !reflect.DeepEqual(want, tB.Records) {
					t.Errorf("k=%d: resumed trace differs (%d vs %d records)", k, len(tB.Records), len(want))
				}
				var fB bytes.Buffer
				if err := eB.Checkpoint(&fB); err != nil {
					t.Fatalf("k=%d: final checkpoint of resumed engine: %v", k, err)
				}
				if !bytes.Equal(fA, fB.Bytes()) {
					t.Errorf("k=%d: final engine state differs byte-wise", k)
				}
			}
		})
	}
}

// checkpointBlob runs a small scenario a few frames and returns one blob.
func checkpointBlob(t testing.TB, cfg Config) []byte {
	t.Helper()
	cap := &ckCapture{}
	cfg.CheckpointEvery = 10
	cfg.CheckpointSink = cap.sink
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	blob := cap.blobs[10]
	if blob == nil {
		t.Fatal("no checkpoint captured")
	}
	return blob
}

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Rings = 1
	cfg.SimTime = 1
	cfg.WarmupTime = 0.2
	cfg.FrameLength = 0.05
	cfg.DataUsersPerCell = 2
	cfg.VoiceUsersPerCell = 2
	cfg.Data.MeanReadingTimeSec = 2
	cfg.Data.MaxSizeBits = 400_000
	return cfg
}

// TestResumeRefusesSemanticConfigChange: every scenario-shaping change must
// be refused by Compatible; the execution knobs must pass. A stored config
// with a key this build has no field for is refused when the checkpoint is
// opened, naming the key.
func TestResumeRefusesSemanticConfigChange(t *testing.T) {
	blob := checkpointBlob(t, tinyConfig())

	cfgJSON, err := json.Marshal(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var foreign bytes.Buffer
	cw := checkpoint.NewWriter(&foreign)
	cw.Section("config")
	cfgJSON = append([]byte(`{"HandoffHysteresisDB":3,`), cfgJSON[1:]...)
	cw.Bytes(&cfgJSON)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(&foreign); err == nil || !strings.Contains(err.Error(), "HandoffHysteresisDB") {
		t.Errorf("config with an unknown key not refused by name: %v", err)
	}

	semantic := map[string]func(*Config){
		"seed":      func(c *Config) { c.Seed++ },
		"simtime":   func(c *Config) { c.SimTime *= 2 },
		"users":     func(c *Config) { c.DataUsersPerCell++ },
		"direction": func(c *Config) { c.Direction = Reverse },
		"scheduler": func(c *Config) { c.Scheduler = SchedulerFCFS },
		"framemode": func(c *Config) { c.FrameMode = FrameSnapshot },
	}
	for name, mut := range semantic {
		c, err := ReadCheckpoint(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config()
		mut(&cfg)
		if _, err := c.Resume(cfg); err == nil || !strings.Contains(err.Error(), "differs") {
			t.Errorf("%s: semantic change not refused: %v", name, err)
		}
	}

	// The execution knobs may change across a resume.
	c, err := ReadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	cfg.TraceEvery = 3
	cfg.CheckpointEvery = 0
	e, err := c.Resume(cfg)
	if err != nil {
		t.Fatalf("execution-knob change refused: %v", err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestResumeIsSingleShot: a checkpoint is consumed by its first Resume.
func TestResumeIsSingleShot(t *testing.T) {
	blob := checkpointBlob(t, tinyConfig())
	c, err := ReadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	e, err := c.Resume(c.Config())
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := c.Resume(c.Config()); err == nil {
		t.Fatal("second Resume should fail")
	}
}

// TestCheckpointCorruptionNeverPanicsOrMisRestores samples single-byte flips
// and truncations over a real checkpoint: each must surface as an error from
// ReadCheckpoint or Resume — never a panic, and never a silently diverging
// engine (every section is CRC-framed, so damage past the header cannot
// decode cleanly).
func TestCheckpointCorruptionNeverPanicsOrMisRestores(t *testing.T) {
	blob := checkpointBlob(t, tinyConfig())

	try := func(data []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on corrupt checkpoint: %v", r)
			}
		}()
		c, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return err
		}
		_, err = c.Resume(c.Config())
		return err
	}

	step := len(blob)/400 + 1
	for off := 0; off < len(blob); off += step {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x55
		if try(mut) == nil {
			t.Fatalf("flip at offset %d (of %d) not detected", off, len(blob))
		}
	}
	for cut := 0; cut < len(blob); cut += step {
		if try(blob[:cut]) == nil {
			t.Fatalf("truncation to %d bytes (of %d) not detected", cut, len(blob))
		}
	}
}

// resumeEngine restores blob under its own configuration.
func resumeEngine(t testing.TB, blob []byte) *Engine {
	t.Helper()
	c, err := ReadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	e, err := c.Resume(c.Config())
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestResumeFreshEngine: a checkpoint taken before the first frame holds
// untargeted windows (bucket -1). It must resume, on a map-wide and on a
// narrow window, and run exactly like a fresh engine.
func TestResumeFreshEngine(t *testing.T) {
	for _, name := range []string{"snap-exact", "city-tiled-fast"} {
		t.Run(name, func(t *testing.T) {
			cfg := resumeScenarios()[name]
			want, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			err = e.Checkpoint(&buf)
			e.Close()
			if err != nil {
				t.Fatal(err)
			}
			got, err := resumeEngine(t, buf.Bytes()).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("resumed fresh engine's metrics differ:\nstraight %+v\nresumed  %+v", want, got)
			}
		})
	}
}

// TestFreshEngineIdenticalAcrossWorkerCounts gates populate's fan-out: a
// fresh engine's seeded state — the checkpoint taken before the first frame
// plus the fast-fading batch, which checkpoints do not store — must be the
// same at FrameParallel 1, 2 and 7, and the same as the one-user-at-a-time
// reference construction below. The windowed scenario carries voice users
// and the map-wide one runs the exact reverse link; both are sized to seed
// more than one task of data and of voice users.
func TestFreshEngineIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, name := range []string{"city-tiled-fast", "seq-exact-reverse"} {
		t.Run(name, func(t *testing.T) {
			cfg := resumeScenarios()[name]
			// At least 7 cells: 70 users make 3 data and 2 voice tasks.
			cfg.DataUsersPerCell, cfg.VoiceUsersPerCell = 10, 10
			fresh := func(par int, reference bool) ([]byte, *rng.JakesBatch) {
				cfg.FrameParallel = par
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if reference {
					e.src = rng.New(cfg.Seed)
					populateReference(e)
				}
				// The config section records the worker count; only the
				// seeded state is under test.
				e.cfg.FrameParallel = 1
				var buf bytes.Buffer
				if err := e.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), e.fadeB
			}
			want, wantFade := fresh(1, true)
			for _, par := range []int{1, 2, 7} {
				got, gotFade := fresh(par, false)
				if !bytes.Equal(got, want) {
					t.Errorf("FrameParallel=%d: fresh checkpoint differs from the sequential reference", par)
				}
				if !reflect.DeepEqual(gotFade, wantFade) {
					t.Errorf("FrameParallel=%d: fading batch differs from the sequential reference", par)
				}
			}
		})
	}
}

// populateReference seeds e's users one at a time in the order every
// substream is pinned to: cell by cell, the cell's data users and then its
// voice users, each splitting its parent substream off e.src just before
// its own splits (a data user's mobility 1, fading 2, traffic 3, window
// slots 10+i; a voice user's activity 1, mobility 2).
func populateReference(e *Engine) {
	nData := e.layout.NumCells() * e.cfg.DataUsersPerCell
	nVoice := e.layout.NumCells() * e.cfg.VoiceUsersPerCell
	e.mobB = mobility.NewWaypointBatch(e.region, e.cfg.MinSpeed, e.cfg.MaxSpeed, 30, nData)
	e.voiceMob = mobility.NewWaypointBatch(e.region, e.cfg.MinSpeed, e.cfg.MaxSpeed, 30, nVoice)
	e.fadeB = rng.NewJakesBatch(nData, 16, e.cfg.DopplerHz)
	e.winB = channel.NewWindow(nData, e.spix.Window(), e.cfg.PathLoss, e.cfg.ShadowSigmaDB, e.cfg.ShadowDecorrM)
	e.users, e.voice = nil, nil
	uid := 0
	for c := 0; c < e.layout.NumCells(); c++ {
		for range e.cfg.DataUsersPerCell {
			userSrc := e.src.Split(uint64(1000 + uid))
			e.mobB.SeedUser(uid, userSrc.Split(1))
			e.fadeB.SeedUser(uid, userSrc.Split(2))
			dataSrc := userSrc.Split(3)
			e.winB.SeedUser(uid, userSrc, 10)
			e.users = append(e.users, &dataUser{
				id:     uid,
				gain:   e.winB.GainRow(uid),
				bucket: -1,
				source: traffic.NewDataModel(dataSrc, uid, e.cfg.Data),
				macM:   mac.MustNewMachine(e.cfg.MAC),
				fch:    load.MakeVec(3),
			})
			uid++
		}
		for i := range e.cfg.VoiceUsersPerCell {
			vsrc := e.src.Split(uint64(500000 + c*1000 + i))
			model := traffic.NewVoiceModel(vsrc.Split(1), 1.0, 1.35)
			e.voiceMob.SeedUser(len(e.voice), vsrc.Split(2))
			e.voice = append(e.voice, voiceUser{model: model, cell: -1})
		}
	}
}

// TestResumeRebuildsPilotSlots: the checkpoint does not store pilot slots,
// so a resumed windowed engine must rebuild each one from the restored
// window — every pilot's Slot must be its cell's position in the user's
// candidate list, exactly where the frame-coherent kernel will read it.
func TestResumeRebuildsPilotSlots(t *testing.T) {
	e := resumeEngine(t, checkpointBlob(t, resumeScenarios()["city-tiled-fast"]))
	checked := 0
	for _, u := range e.users {
		for i, pm := range u.pilots {
			if want := cellular.FindCell(u.cand, pm.Cell); int(pm.Slot) != want {
				t.Fatalf("user %d pilot %d (cell %d): slot %d, window position %d", u.id, i, pm.Cell, pm.Slot, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no resumed user carries pilots; the check is vacuous")
	}
}

// TestResumeRefusesBadPilotCell: a checkpoint whose stored pilot list names
// a cell outside the map or outside the user's window, names one cell
// twice, or is longer than the window, must be refused — not restored with
// a truncated cell, a slot pointing at another cell's gain, or a duplicate
// the frame-coherent fast kernel would keep reusing in place of a real
// pilot. (Lists longer than cellular.TopPilots are covered by
// TestResumeRefusesPilotsPastTopPilots.) So must a stored spatial bucket that names
// no candidate list — past the index, or -1 for a user that has advanced —
// since the window is rebuilt from it. The blobs are written by a real
// engine after the state is corrupted in memory, so every section's
// framing is intact and only the restore checks can catch the damage.
func TestResumeRefusesBadPilotCell(t *testing.T) {
	setLast := func(bad func(u *dataUser, nCells int) int32) func(*dataUser, int) {
		return func(u *dataUser, nCells int) {
			u.pilots[len(u.pilots)-1].Cell = bad(u, nCells)
		}
	}
	outsideWindow := func(u *dataUser, nCells int) int32 {
		for c := int32(0); c < int32(nCells); c++ {
			if cellular.FindCell(u.cand, c) < 0 {
				return c
			}
		}
		t.Fatal("window covers every cell")
		return 0
	}
	duplicate := func(u *dataUser, _ int) int32 { return u.pilots[0].Cell }
	overlong := func(u *dataUser, _ int) {
		for len(u.pilots) <= len(u.cand) {
			u.pilots = append(u.pilots, u.pilots[0])
		}
	}
	bucketPastIndex := func(u *dataUser, _ int) { u.bucket = 1 << 20 }
	noBucket := func(u *dataUser, _ int) { u.bucket = -1 }
	city := resumeScenarios()["city-tiled-fast"]
	for _, tc := range []struct {
		name    string
		cfg     Config
		corrupt func(u *dataUser, nCells int)
		want    string
	}{
		{"full-scan cell past the map", tinyConfig(), setLast(func(_ *dataUser, n int) int32 { return int32(n) }), "pilot cell"},
		{"full-scan negative cell", tinyConfig(), setLast(func(*dataUser, int) int32 { return -1 }), "pilot cell"},
		{"full-scan duplicate pilot cell", tinyConfig(), setLast(duplicate), "pilot cell"},
		{"full-scan list longer than the window", tinyConfig(), overlong, "more than its window"},
		{"windowed cell past the map", city, setLast(func(_ *dataUser, n int) int32 { return int32(n) }), "pilot cell"},
		{"windowed cell outside the window", city, setLast(outsideWindow), "pilot cell"},
		{"windowed duplicate pilot cell", city, setLast(duplicate), "pilot cell"},
		{"windowed list longer than the window", city, overlong, "more than its window"},
		{"full-scan bucket past the index", tinyConfig(), bucketPastIndex, "window bucket"},
		{"windowed bucket past the index", city, bucketPastIndex, "window bucket"},
		{"full-scan negative bucket", tinyConfig(), noBucket, "window bucket"},
		{"windowed negative bucket", city, noBucket, "window bucket"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := resumeEngine(t, checkpointBlob(t, tc.cfg))
			var u *dataUser
			for _, cand := range e.users {
				if len(cand.pilots) > 1 {
					u = cand
					break
				}
			}
			if u == nil {
				t.Fatal("no user carries two pilots")
			}
			tc.corrupt(u, e.layout.NumCells())
			var buf bytes.Buffer
			if err := e.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			c, err := ReadCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if eB, err := c.Resume(c.Config()); err == nil {
				eB.Close()
				t.Fatal("checkpoint with a bad pilot list resumed")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refused for the wrong reason: %v", err)
			}
		})
	}
}

// TestResumeRefusesPilotCellPast32Bits: a stored pilot cell is a 64-bit
// value. One that names a real cell only in its low 32 bits must be
// refused, not narrowed into that cell. The engine cannot hold such a
// cell, so the stored value is patched in the stream.
func TestResumeRefusesPilotCellPast32Bits(t *testing.T) {
	blob := checkpointBlob(t, tinyConfig())
	if len(resumeEngine(t, blob).users[0].pilots) == 0 {
		t.Fatal("user 0 carries no pilots")
	}
	forged := rewriteSection(t, blob, "users", func(p []byte) {
		// The section opens with user 0's pilot count, then its first
		// pilot's cell.
		binary.LittleEndian.PutUint64(p[8:], binary.LittleEndian.Uint64(p[8:])+1<<32)
	})
	c, err := ReadCheckpoint(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	if eB, err := c.Resume(c.Config()); err == nil {
		eB.Close()
		t.Fatal("checkpoint with a pilot cell past 32 bits resumed")
	} else if !strings.Contains(err.Error(), "pilot cell") {
		t.Fatalf("refused for the wrong reason: %v", err)
	}
}

// TestResumeRefusesPilotsPastTopPilots: the pilot kernels keep at most the
// strongest cellular.TopPilots pilots, so a checkpoint that stores more for
// a user holds a list no run of this build writes, even when every entry
// names a distinct cell of the user's window. The reader must refuse it on
// its length, before reading the entries, rather than restore a prefix;
// a duplicate or out-of-window cell past position TopPilots is refused the
// same way. The long lists are written by a real engine after extending its
// pilots in memory with other cells of the window.
func TestResumeRefusesPilotsPastTopPilots(t *testing.T) {
	city := resumeScenarios()["city-tiled-fast"]
	// extend appends window cells the user's pilots do not list until there
	// are n (or the window runs out), then lets bad corrupt the long list.
	extend := func(n int, bad func(u *dataUser)) func(*dataUser) {
		return func(u *dataUser) {
			for s, c := range u.cand {
				if len(u.pilots) >= n {
					break
				}
				if !slices.ContainsFunc(u.pilots, func(p cellular.PilotMeasurement) bool { return p.Cell == c }) {
					u.pilots = append(u.pilots, cellular.PilotMeasurement{Cell: c, Slot: int32(s), EcIo: 1e-9})
				}
			}
			bad(u)
		}
	}
	past := cellular.TopPilots + 2 // an entry past the longest list the kernels keep
	whole := 1 << 30
	for _, tc := range []struct {
		name    string
		corrupt func(u *dataUser)
	}{
		{"one past TopPilots", extend(cellular.TopPilots+1, func(*dataUser) {})},
		{"whole window", extend(whole, func(*dataUser) {})},
		{"duplicate past TopPilots", extend(whole, func(u *dataUser) { u.pilots[past].Cell = u.pilots[0].Cell })},
		{"outside the window past TopPilots", extend(whole, func(u *dataUser) {
			for c := int32(0); ; c++ {
				if cellular.FindCell(u.cand, c) < 0 {
					u.pilots[past].Cell = c
					return
				}
			}
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := resumeEngine(t, checkpointBlob(t, city))
			u := e.users[0]
			if len(u.pilots) != cellular.TopPilots || len(u.cand) <= past {
				t.Fatalf("user 0 has %d pilots over a %d-cell window; want %d over more than %d", len(u.pilots), len(u.cand), cellular.TopPilots, past)
			}
			tc.corrupt(u)
			if len(u.pilots) <= cellular.TopPilots {
				t.Fatalf("corrupted list has %d pilots; want more than %d", len(u.pilots), cellular.TopPilots)
			}
			var buf bytes.Buffer
			if err := e.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			c, err := ReadCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if eB, err := c.Resume(c.Config()); err == nil {
				eB.Close()
				t.Fatal("checkpoint with more than TopPilots pilots resumed")
			} else if !strings.Contains(err.Error(), "more than its window") {
				t.Fatalf("refused for the wrong reason: %v", err)
			}
		})
	}
}

// rewriteSection returns a copy of the checkpoint stream blob in which the
// payload of the section called name has been passed through patch, which
// may modify it in place, with the section checksum recomputed. The
// framing is internal/checkpoint's: a 12-byte header, then per section a
// 4-byte name length, the name, an 8-byte payload length, the payload and
// a 4-byte CRC-32.
func rewriteSection(t testing.TB, blob []byte, name string, patch func(payload []byte)) []byte {
	t.Helper()
	out := append([]byte(nil), blob...)
	pos := 12
	for pos+4 <= len(out) {
		nameLen := int(binary.LittleEndian.Uint32(out[pos:]))
		if nameLen == 0xFFFFFFFF {
			break
		}
		got := string(out[pos+4 : pos+4+nameLen])
		pos += 4 + nameLen
		n := int(binary.LittleEndian.Uint64(out[pos:]))
		payload := out[pos+8 : pos+8+n]
		pos += 8 + n
		if got == name {
			patch(payload)
			binary.LittleEndian.PutUint32(out[pos:], crc32.ChecksumIEEE(payload))
			return out
		}
		pos += 4
	}
	t.Fatalf("checkpoint has no section %q", name)
	return nil
}

// queuedConfig is tinyConfig with enough offered load that requests wait
// in queue across frames, so its checkpoints store queue entries.
func queuedConfig() Config {
	cfg := tinyConfig()
	cfg.DataUsersPerCell = 14
	cfg.Data.MeanReadingTimeSec = 0.2
	return cfg
}

// TestResumeQueuesPendingRequests: a checkpoint taken while requests
// wait in queue resumes with each queue entry being its user's restored
// pending request, at the user's queuedCell. (TestCheckpointResumeByteIdentical's
// "queued" scenario proves the resumed run continues like the straight one.)
func TestResumeQueuesPendingRequests(t *testing.T) {
	e := resumeEngine(t, checkpointBlob(t, queuedConfig()))
	queued := 0
	for k, q := range e.queues {
		for _, it := range q.Items() {
			if u := e.users[it.UserID]; u.queuedReq != it || u.queuedCell != k {
				t.Fatalf("cell %d entry for user %d is not the user's pending request queued at its cell", k, it.UserID)
			}
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("no request waits at the checkpoint; the check is vacuous")
	}
}

// forgeCheckpoint resumes blob, lets corrupt damage the engine in memory
// and returns the engine's checkpoint: every section's framing is intact,
// so only the restore checks can catch the damage.
func forgeCheckpoint(tb testing.TB, blob []byte, corrupt func(e *Engine)) []byte {
	tb.Helper()
	e := resumeEngine(tb, blob)
	corrupt(e)
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// queueIdleUser pushes a request for a user with no pending request onto
// its host cell's queue: a queue entry no run of this build writes.
func queueIdleUser(tb testing.TB, e *Engine) {
	tb.Helper()
	for _, u := range e.users {
		if u.queuedReq == nil {
			e.queues[u.hostCell].Push(&traffic.BurstRequest{UserID: u.id, ArrivalTime: e.now})
			return
		}
	}
	tb.Fatal("every user has a pending request")
}

// queuedUser returns the user of the first queued request.
func queuedUser(tb testing.TB, e *Engine) *dataUser {
	tb.Helper()
	for _, q := range e.queues {
		if q.Len() > 0 {
			return e.users[q.Items()[0].UserID]
		}
	}
	tb.Fatal("no queued request at the checkpoint")
	return nil
}

// serveUser starts a burst for u, whatever u's request state: a burst no
// run of this build writes unless u's request was granted.
func serveUser(e *Engine, u *dataUser) {
	e.bursts = append(e.bursts, &burst{user: u, ratio: 1, remaining: 1, load: u.fch.CloneScaled(1)})
}

// TestResumeRefusesBadQueueEntry: a stored queue lists user ids, and resume
// queues each user's restored pending request; a burst names the user it
// serves. Every pending request is either queued at its user's queuedCell
// or in service, exactly once. A queue entry or burst that breaks this — a
// user with no pending request, queued twice, queued at another cell,
// queued and served, served twice, served from an out-of-range cell, or a
// pending request neither queued nor served — is refused, not restored as
// a request nothing would grant or complete, or one that completes while
// still queued.
func TestResumeRefusesBadQueueEntry(t *testing.T) {
	blob := checkpointBlob(t, queuedConfig())
	served := func(t *testing.T, e *Engine) *dataUser {
		if len(e.bursts) == 0 {
			t.Fatal("no burst in service at the checkpoint")
		}
		return e.bursts[0].user
	}
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, e *Engine)
		want    string
	}{
		{"user with no request", func(t *testing.T, e *Engine) { queueIdleUser(t, e) }, "no pending request"},
		{"user queued twice", func(t *testing.T, e *Engine) {
			u := queuedUser(t, e)
			e.queues[u.queuedCell].Push(u.queuedReq)
		}, "queued twice"},
		{"user queued at another cell", func(t *testing.T, e *Engine) {
			u := queuedUser(t, e)
			e.queues[u.queuedCell].Remove(u.queuedReq)
			e.queues[(u.queuedCell+1)%len(e.queues)].Push(u.queuedReq)
		}, "queued at cell"},
		{"burst for a queued user", func(t *testing.T, e *Engine) { serveUser(e, queuedUser(t, e)) }, "already queued or in service"},
		{"burst for a user with no request", func(t *testing.T, e *Engine) {
			for _, u := range e.users {
				if u.queuedReq == nil {
					serveUser(e, u)
					return
				}
			}
			t.Fatal("every user has a pending request")
		}, "no pending request"},
		{"user served twice", func(t *testing.T, e *Engine) { serveUser(e, served(t, e)) }, "already queued or in service"},
		{"burst from an out-of-range cell", func(t *testing.T, e *Engine) {
			served(t, e).queuedCell = len(e.queues)
		}, "outside 0.."},
		{"request neither queued nor served", func(t *testing.T, e *Engine) {
			u := queuedUser(t, e)
			e.queues[u.queuedCell].Remove(u.queuedReq)
		}, "neither queued nor in service"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forged := forgeCheckpoint(t, blob, func(e *Engine) { tc.corrupt(t, e) })
			c, err := ReadCheckpoint(bytes.NewReader(forged))
			if err != nil {
				t.Fatal(err)
			}
			if eB, err := c.Resume(c.Config()); err == nil {
				eB.Close()
				t.Fatal("checkpoint with a bad queue entry or burst resumed")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refused for the wrong reason: %v", err)
			}
		})
	}
}

// TestResumeRefusesOrphanLoadCursor: a checkpoint that has applied load
// events but whose config has no fault schedule to continue is refused,
// not resumed with the events silently forgotten. The blob is written by a
// real engine whose schedule is dropped in memory after the events fired.
func TestResumeRefusesOrphanLoadCursor(t *testing.T) {
	cfg := tinyConfig()
	cfg.Faults = &fault.Schedule{Load: []fault.LoadEvent{{AtSec: 0.1, ReadingTimeSec: 1}}}
	e := resumeEngine(t, checkpointBlob(t, cfg))
	if e.fault.LoadCursor() != 1 {
		t.Fatalf("load cursor %d at the checkpoint, want 1", e.fault.LoadCursor())
	}
	e.cfg.Faults = nil
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if eB, err := c.Resume(c.Config()); err == nil {
		eB.Close()
		t.Fatal("checkpoint with an orphan load cursor resumed")
	} else if !strings.Contains(err.Error(), "no fault schedule") {
		t.Fatalf("refused for the wrong reason: %v", err)
	}
}

// TestResumeCommittedCheckpoints resumes checkpoints written by an earlier
// build of this format version, so a change to the layout that does not
// bump checkpoint.Version fails here. One is an exact-path run with a fault
// schedule: an outage spans the checkpoint frame and two load events have
// fired, so the load cursor must come back as 2. One is a fast-path run on
// a moving 7-cell window over 37 cells, and one an exact-path reverse-link
// run. The last is an exact-path outage run checkpointed while cell 0 is
// down, with requests waiting in the queues (one of them migrated off the
// down cell), so it pins stored queue entries. Checkpointing the engine
// right after the resume must write the committed file's bytes again,
// which pins the writing side of the codec.
// The resumed run must finish exactly like a straight run of this build
// from the checkpoint's own configuration: the same metrics and the same
// trace from the checkpoint frame on. The fast-path file pins amd64 kernel
// bits, so it is checked on amd64 only. After a format change, bump
// checkpoint.Version and regenerate the files:
//
//	jabasim -preset smoke -dump-config > smoke.json
//	# add to smoke.json:
//	#   "Faults": {"cells": [{"cell": 2, "start_sec": 2.5, "end_sec": 3.5}],
//	#              "load": [{"at_sec": 1, "reading_time_sec": 1},
//	#                       {"at_sec": 2, "reading_time_sec": 3}]}
//	jabasim -config smoke.json -exact-vtaoc -sim-time 4 -checkpoint testdata/checkpoint/v7-smoke-exact-faults.ckpt -checkpoint-every 150
//	jabasim -preset smoke -dump-config > smoke-win.json
//	# in smoke-win.json set "Rings": 3 and "PilotCells": 7
//	jabasim -config smoke-win.json -sim-time 4 -checkpoint testdata/checkpoint/v7-smoke-win7-fast.ckpt -checkpoint-every 150
//	jabasim -preset reverse -exact-vtaoc -sim-time 8 -checkpoint testdata/checkpoint/v7-reverse-exact.ckpt -checkpoint-every 300
//	jabasim -exact-vtaoc -preset smoke -fault-profile outage -data-users 30 -sim-time 6 -checkpoint testdata/checkpoint/v7-smoke-outage-queued-exact.ckpt -checkpoint-every 160
//
// (rename the files after the new version, here and in the fixture-resume
// row of the golden table in golden_test.go at the module root).
func TestResumeCommittedCheckpoints(t *testing.T) {
	for _, fx := range []struct {
		name       string
		frame      int
		pilotCells int
		direction  Direction
		// With a fault schedule: the cell down and the load cursor at the
		// checkpoint frame.
		downCell, loadCursor int
		queued               bool // requests wait in the queues
	}{
		{"v7-smoke-exact-faults.ckpt", 150, 0, Forward, 2, 2, false},
		{"v7-smoke-win7-fast.ckpt", 150, 7, Forward, 0, 0, false},
		{"v7-reverse-exact.ckpt", 300, 0, Reverse, 0, 0, false},
		{"v7-smoke-outage-queued-exact.ckpt", 160, 0, Forward, 0, 0, true},
	} {
		t.Run(fx.name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "checkpoint", fx.name))
			if err != nil {
				t.Fatal(err)
			}
			c, err := ReadCheckpoint(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.Config()
			if !cfg.ExactPHY && runtime.GOARCH != "amd64" {
				t.Skipf("fast-path checkpoint pins amd64 kernel bits; GOARCH is %s", runtime.GOARCH)
			}
			if cfg.PilotCells != fx.pilotCells || cfg.Direction != fx.direction {
				t.Fatalf("fixture has PilotCells %d and direction %v, want %d and %v", cfg.PilotCells, cfg.Direction, fx.pilotCells, fx.direction)
			}

			straight := cfg
			var want trace.Memory
			straight.Trace = &want
			mWant, err := Run(context.Background(), straight)
			if err != nil {
				t.Fatal(err)
			}

			var got trace.Memory
			cfg.Trace = &got
			e, err := c.Resume(cfg)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			var again bytes.Buffer
			if err := e.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), raw) {
				t.Error("checkpointing the resumed engine does not reproduce the committed file's bytes")
			}
			k := e.Frame()
			if k != fx.frame {
				t.Fatalf("resumed at frame %d, want %d", k, fx.frame)
			}
			if cfg.Faults != nil {
				if got := e.fault.LoadCursor(); got != fx.loadCursor {
					t.Fatalf("load cursor %d after resume, want %d", got, fx.loadCursor)
				}
				if !e.fault.Down[fx.downCell] {
					t.Fatalf("cell %d's outage is not active at the checkpoint frame", fx.downCell)
				}
			}
			queued := 0
			for _, q := range e.queues {
				queued += q.Len()
			}
			if (queued > 0) != fx.queued {
				t.Fatalf("%d requests queued at the checkpoint frame, want queued=%v", queued, fx.queued)
			}
			mGot, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mWant, mGot) {
				t.Errorf("resumed metrics differ:\nstraight %+v\nresumed  %+v", mWant, mGot)
			}
			tail := tracesFrom(want.Records, k)
			if len(tail) == 0 {
				t.Fatal("straight run traced nothing after the checkpoint frame; the trace check is vacuous")
			}
			if !reflect.DeepEqual(tail, got.Records) {
				t.Errorf("resumed trace differs (%d vs %d records)", len(got.Records), len(tail))
			}
		})
	}
}
