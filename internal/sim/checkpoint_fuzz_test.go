package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzReadCheckpoint feeds arbitrary bytes — seeded with a real checkpoint,
// a few structurally damaged variants, two well-framed ones whose master
// stream carries a flagged Gaussian spare no Box-Muller draw can return, one
// whose queue names a user with no pending request and one with a burst for
// a queued user — through the full decode path.
// The invariant: ReadCheckpoint/Resume may reject the input with an error,
// but must never panic, and an input that decodes cleanly must produce an
// engine that runs. A forged config cannot slip through: it is decoded
// strictly and validated before any state is touched, and every state
// section must then fit the engine it built.
func FuzzReadCheckpoint(f *testing.F) {
	cfg := tinyConfig()
	cap := &ckCapture{}
	cfg.CheckpointEvery = 10
	cfg.CheckpointSink = cap.sink
	if _, err := Run(context.Background(), cfg); err != nil {
		f.Fatal(err)
	}
	blob := cap.blobs[10]
	if blob == nil {
		f.Fatal("no checkpoint captured")
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:13])
	f.Add([]byte{})
	bumped := append([]byte(nil), blob...)
	bumped[8]++ // format version
	f.Add(bumped)
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	// The engine section stores the frame, the time and the load cursor
	// (8 bytes each), one pending-retry byte per cell, then the master
	// stream: four state words, the spare and its has-spare flag.
	e, err := NewEngine(cfg)
	if err != nil {
		f.Fatal(err)
	}
	spareAt := 24 + e.layout.NumCells() + 32
	e.Close()
	for _, bad := range []float64{math.NaN(), math.MaxFloat64} {
		forged := rewriteSection(f, blob, "engine", func(p []byte) {
			binary.LittleEndian.PutUint64(p[spareAt:], math.Float64bits(bad))
			p[spareAt+8] = 1
		})
		c, err := ReadCheckpoint(bytes.NewReader(forged))
		if err != nil {
			f.Fatal(err)
		}
		if eB, err := c.Resume(c.Config()); err == nil {
			eB.Close()
			f.Fatalf("checkpoint with a flagged spare %v resumed", bad)
		} else if !strings.Contains(err.Error(), "spare") {
			f.Fatalf("flagged spare %v refused for the wrong reason: %v", bad, err)
		}
		f.Add(forged)
	}
	// Well-framed checkpoints breaking the one-place-per-request rule: a
	// queue entry for a user with no pending request, and a burst serving a
	// user whose request is still queued (resumed, it would complete the
	// request and leave its queue entry behind).
	queued := checkpointBlob(f, queuedConfig())
	for _, forged := range [][]byte{
		forgeCheckpoint(f, blob, func(e *Engine) { queueIdleUser(f, e) }),
		forgeCheckpoint(f, queued, func(e *Engine) { serveUser(e, queuedUser(f, e)) }),
	} {
		c, err := ReadCheckpoint(bytes.NewReader(forged))
		if err != nil {
			f.Fatal(err)
		}
		if eB, err := c.Resume(c.Config()); err == nil {
			eB.Close()
			f.Fatal("checkpoint breaking the one-place-per-request rule resumed")
		}
		f.Add(forged)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		e, err := c.Resume(c.Config())
		if err != nil {
			return
		}
		defer e.Close()
		if _, err := e.Run(context.Background()); err != nil {
			t.Fatalf("cleanly decoded checkpoint failed to run: %v", err)
		}
	})
}
