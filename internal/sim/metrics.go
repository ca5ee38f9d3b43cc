package sim

import (
	"fmt"

	"jabasd/internal/stats"
)

// Metrics is the result of one simulation replication.
type Metrics struct {
	Scheduler string
	Direction string

	// Burst/packet delay: time from the burst request arriving at the MAC to
	// the last bit being delivered (queueing + MAC set-up + transmission).
	BurstDelay stats.Sample
	// AdmissionWait: time from arrival to the first non-zero grant.
	AdmissionWait stats.Sample

	// Served rate of completed bursts (bits/s averaged over their service).
	ServedRate stats.Running

	// Per-frame cell loading as a fraction of the budget (power for forward,
	// interference headroom for reverse).
	CellLoad stats.Running
	// Queue length across cells, time-averaged.
	QueueLength stats.TimeWeighted

	// Assigned spreading ratios of granted bursts.
	AssignedRatio stats.Running

	BurstsGenerated int64
	BurstsCompleted int64

	// SkippedCells counts cell-frames whose admission was abandoned because
	// the measurement sub-layer could not build the admissible region or the
	// scheduler failed. A healthy scenario keeps this at zero (warm-up
	// included); a persistently non-zero count means the configuration is
	// feeding the admission layer inconsistent measurements.
	SkippedCells int64
	// SolveRetries counts cell-frames that recovered after a skip: the queue
	// keeps a skipped cell's requests, the cell is re-solved the next frame
	// it gathers any, and the first success clears the pending-retry mark.
	// SkippedCells - SolveRetries therefore bounds the still-unrecovered
	// skips at the end of the run.
	SolveRetries int64
	// FallbackSolves counts cell-frames where the exact JABA-SD solve hit
	// its node budget (Config.SolveNodeBudget) and the grants came from the
	// deterministic greedy fallback instead. Zero when no budget is set.
	FallbackSolves int64
	// SpilloverHandoffs counts burst requests migrated from an
	// out-of-service cell's queue to their owner's surviving host cell
	// (fault schedules only; warm-up included, like the trace).
	SpilloverHandoffs int64
	// OutageCellFrames counts (cell, frame) pairs spent out of service under
	// the fault schedule — the denominator for spillover and degradation
	// rates. Zero without a schedule.
	OutageCellFrames int64

	// CoveredBursts counts completed bursts whose average served rate met the
	// coverage threshold; coverage = CoveredBursts / BurstsCompleted.
	CoveredBursts int64

	// Total data bits delivered after warm-up.
	BitsDelivered float64
	// Observation time after warm-up (seconds).
	ObservedTime float64
	// Number of cells, for per-cell normalisation.
	Cells int
}

// MeanBurstDelay returns the mean burst delay in seconds.
func (m *Metrics) MeanBurstDelay() float64 { return m.BurstDelay.Mean() }

// P90BurstDelay returns the 90th percentile burst delay in seconds.
func (m *Metrics) P90BurstDelay() float64 { return m.BurstDelay.Quantile(0.9) }

// ThroughputPerCell returns the delivered data throughput per cell in bit/s.
func (m *Metrics) ThroughputPerCell() float64 {
	if m.ObservedTime <= 0 || m.Cells == 0 {
		return 0
	}
	return m.BitsDelivered / m.ObservedTime / float64(m.Cells)
}

// CompletionRatio returns completed/generated bursts.
func (m *Metrics) CompletionRatio() float64 {
	if m.BurstsGenerated == 0 {
		return 0
	}
	return float64(m.BurstsCompleted) / float64(m.BurstsGenerated)
}

// Coverage returns the fraction of completed bursts that met the coverage
// rate threshold (the paper's coverage metric: where in the cell a user can
// actually get high-speed service).
func (m *Metrics) Coverage() float64 {
	if m.BurstsCompleted == 0 {
		return 0
	}
	return float64(m.CoveredBursts) / float64(m.BurstsCompleted)
}

// String summarises the replication.
func (m *Metrics) String() string {
	return fmt.Sprintf("%s/%s: delay=%.3fs p90=%.3fs tput/cell=%.0f bit/s load=%.2f cov=%.2f done=%d/%d",
		m.Scheduler, m.Direction, m.MeanBurstDelay(), m.P90BurstDelay(),
		m.ThroughputPerCell(), m.CellLoad.Mean(), m.Coverage(),
		m.BurstsCompleted, m.BurstsGenerated)
}

// Aggregate merges the metrics of several independent replications.
type Aggregate struct {
	Scheduler string
	Direction string

	MeanDelay      stats.Running // one observation per replication
	P90Delay       stats.Running
	Throughput     stats.Running
	Coverage       stats.Running
	CellLoad       stats.Running
	AdmissionWait  stats.Running
	AssignedRatio  stats.Running
	CompletionRate stats.Running
	// SkippedCells is the per-replication count of abandoned cell-frames
	// (see Metrics.SkippedCells); any non-zero mean deserves a look.
	SkippedCells stats.Running
	// FallbackSolves and SpilloverHandoffs mirror their Metrics counters per
	// replication: budget-capped solves degraded to greedy, and requests
	// migrated off out-of-service cells.
	FallbackSolves    stats.Running
	SpilloverHandoffs stats.Running
	Replications      int
}

// AddReplication folds one replication's metrics into the aggregate.
func (a *Aggregate) AddReplication(m *Metrics) {
	if a.Scheduler == "" {
		a.Scheduler = m.Scheduler
		a.Direction = m.Direction
	}
	a.MeanDelay.Add(m.MeanBurstDelay())
	a.P90Delay.Add(m.P90BurstDelay())
	a.Throughput.Add(m.ThroughputPerCell())
	a.Coverage.Add(m.Coverage())
	a.CellLoad.Add(m.CellLoad.Mean())
	a.AdmissionWait.Add(m.AdmissionWait.Mean())
	a.AssignedRatio.Add(m.AssignedRatio.Mean())
	a.CompletionRate.Add(m.CompletionRatio())
	a.SkippedCells.Add(float64(m.SkippedCells))
	a.FallbackSolves.Add(float64(m.FallbackSolves))
	a.SpilloverHandoffs.Add(float64(m.SpilloverHandoffs))
	a.Replications++
}
