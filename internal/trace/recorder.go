package trace

import "fmt"

// ringCapacity is the recorder's buffered record count. At the baseline
// scenario (19 cells) it holds ~27 frames of full-rate tracing, so the sink
// sees large batches while the buffer stays a few hundred KB.
const ringCapacity = 512

// Recorder buffers records in a fixed-capacity ring and flushes them to its
// sink whenever the ring fills (and on Flush). Emit never allocates: the
// ring is allocated once, records are value copies, and the flush hands the
// sink the filled prefix directly. Errors from the sink are sticky — once a
// write fails the recorder drops further records and Flush reports the
// first failure — so the hot loop never has to check errors per record.
//
// A Recorder is not safe for concurrent use; the engine only emits from its
// sequential sections (commit, collect), which is what makes the trace
// byte-identical for any snapshot-mode worker count.
type Recorder struct {
	sink  Sink
	every int
	ring  []Record
	n     int
	err   error
}

// NewRecorder wraps sink in a recorder that samples every N-th frame
// (every <= 1 records every frame).
func NewRecorder(sink Sink, every int) *Recorder {
	if every < 1 {
		every = 1
	}
	return &Recorder{
		sink:  sink,
		every: every,
		ring:  make([]Record, ringCapacity),
	}
}

// Sampled reports whether the given frame index should be recorded.
func (r *Recorder) Sampled(frame int) bool { return frame%r.every == 0 }

// Emit buffers one record, flushing to the sink when the ring is full.
func (r *Recorder) Emit(rec Record) {
	if r.err != nil {
		return
	}
	r.ring[r.n] = rec
	r.n++
	if r.n == len(r.ring) {
		r.flush()
	}
}

func (r *Recorder) flush() {
	if r.n == 0 || r.err != nil {
		r.n = 0
		return
	}
	if err := r.sink.Write(r.ring[:r.n]); err != nil {
		r.err = fmt.Errorf("trace: sink write: %w", err)
	}
	r.n = 0
}

// Flush drains the buffered records to the sink and returns the first sink
// error seen over the recorder's lifetime (including earlier ring-full
// flushes). The engine calls it once at the end of the replication.
func (r *Recorder) Flush() error {
	r.flush()
	return r.err
}
