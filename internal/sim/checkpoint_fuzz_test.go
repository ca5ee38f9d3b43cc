package sim

import (
	"bytes"
	"context"
	"testing"
)

// FuzzReadCheckpoint feeds arbitrary bytes — seeded with a real checkpoint
// and a few structurally damaged variants — through the full decode path.
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
