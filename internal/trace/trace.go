// Package trace is the frame-level telemetry layer of the simulator: a
// low-overhead per-frame, per-cell recorder for the time series the
// end-of-replication aggregates (sim.Metrics) throw away — offered vs
// admitted bursts, granted spreading ratios, cell load, queue length,
// admission solve status and burst-delay samples, frame by frame.
//
// The engine emits one Record per (sampled frame, cell) into a Recorder,
// which buffers them in a preallocated ring and hands full batches to a
// pluggable Sink: Memory for tests and the transient experiments
// (E11-E14), CSV and JSONL writers for the -trace flags of cmd/jabasim
// and cmd/jabasweep. The hot path (Recorder.Emit) is allocation-free —
// records are value structs copied into the ring — and all emission
// happens on the engine's sequential sections, so the stream is
// byte-identical regardless of the snapshot frame mode's worker count,
// like every other simulator output.
//
// Sampling is controlled by the recorder's every parameter (sim.Config's
// TraceEvery): frames whose index is not a multiple of it are not
// recorded at all — the per-frame counters are reset each frame, so a
// sampled row is that frame's activity, not an aggregate since the last
// sample.
package trace

import "strconv"

// Solve status values a cell's admission can end a frame with.
const (
	// SolveIdle means the cell had no live burst requests this frame, so the
	// measurement and scheduling sub-layers never ran.
	SolveIdle = "idle"
	// SolveOK means the cell built its admissible region and solved its
	// scheduling ILP (a solve that grants nothing is still "ok").
	SolveOK = "ok"
	// SolveSkipped means the region build or the scheduler failed and the
	// cell's admission was abandoned for this frame (counted in
	// sim.Metrics.SkippedCells); the queue keeps the requests, so the cell
	// is retried next frame.
	SolveSkipped = "skipped"
	// SolveFallback means the exact scheduler hit its node budget
	// (sim.Config.SolveNodeBudget) and this frame's grants came from the
	// deterministic greedy fallback (counted in sim.Metrics.FallbackSolves).
	SolveFallback = "fallback"
)

// Record is one cell's telemetry for one sampled frame.
type Record struct {
	// Frame is the 0-based frame index; TimeS is the frame's start time in
	// simulated seconds (Frame * FrameLength).
	Frame int
	TimeS float64
	// Cell is the cell index in the layout.
	Cell int
	// Offered is the number of burst requests the admission layer gathered
	// from the cell's queue this frame.
	Offered int
	// Admitted is the number of requests granted a non-zero spreading ratio
	// this frame; GrantedRatio is the sum of those ratios (Σ m_j).
	Admitted     int
	GrantedRatio int
	// Completed counts bursts that finished in this cell this frame;
	// DelaySumS is the sum of their total burst delays in seconds (arrival
	// to last bit), so DelaySumS/Completed is the frame's mean. Unlike
	// sim.Metrics these include the warm-up period — transient analysis is
	// the point of the trace.
	Completed int
	DelaySumS float64
	// QueueLen is the cell's queue length after admission; ActiveBursts the
	// number of ongoing bursts whose request was queued in this cell.
	QueueLen     int
	ActiveBursts int
	// Load is the cell's end-of-frame resource usage as a fraction of its
	// budget (transmit power for the forward link, rise-over-thermal for the
	// reverse link). It can exceed 1 transiently in the snapshot frame mode.
	Load float64
	// Down is 1 while the cell is out of service under the fault schedule
	// (sim.Config.Faults), else 0. Spill counts burst requests migrated
	// INTO this cell's queue this frame from out-of-service cells.
	Down  int
	Spill int
	// Solve is the admission outcome: SolveIdle, SolveOK, SolveFallback or
	// SolveSkipped.
	Solve string
}

// Columns returns the trace schema in record order — the header of the CSV
// sink and the field names of the JSONL sink.
func Columns() []string {
	return []string{
		"frame", "time_s", "cell", "offered", "admitted", "granted_ratio",
		"completed", "delay_sum_s", "queue_len", "active_bursts", "load",
		"down", "spill", "solve",
	}
}

// AppendRow appends the record's fields, formatted, to dst in Columns order.
// Floats use the shortest exact representation so the stream round-trips
// and byte-for-byte determinism checks are meaningful.
func (r Record) AppendRow(dst []string) []string {
	return append(dst,
		strconv.Itoa(r.Frame),
		formatFloat(r.TimeS),
		strconv.Itoa(r.Cell),
		strconv.Itoa(r.Offered),
		strconv.Itoa(r.Admitted),
		strconv.Itoa(r.GrantedRatio),
		strconv.Itoa(r.Completed),
		formatFloat(r.DelaySumS),
		strconv.Itoa(r.QueueLen),
		strconv.Itoa(r.ActiveBursts),
		formatFloat(r.Load),
		strconv.Itoa(r.Down),
		strconv.Itoa(r.Spill),
		r.Solve,
	)
}

func formatFloat(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// Sink consumes batches of records. Write is called with a reused buffer:
// implementations must not retain the slice (Memory copies it). A sink is
// only ever written to by one recorder at a time; sharing a sink between
// concurrently running engines is the caller's bug.
type Sink interface {
	Write(records []Record) error
}
