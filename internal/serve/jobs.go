package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"jabasd/internal/experiments"
	"jabasd/internal/jobspec"
	"jabasd/internal/report"
	"jabasd/internal/sim"
	"jabasd/internal/sweep"
)

// JobState is a job's position in its lifecycle.
type JobState string

// The job lifecycle: queued → running → one of the three terminal states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the body of POST /v1/jobs: a kind plus exactly the matching
// spec. The specs are the same jobspec types the CLIs resolve, so a job
// body is a jabasweep/jabasim/jabaexp invocation in JSON form.
type JobSpec struct {
	// Kind is "run", "sweep" or "experiments".
	Kind string `json:"kind"`
	// Run describes a single simulation (kind "run"): scenario, overrides
	// and replication count, exactly as cmd/jabasim resolves them.
	Run *jobspec.RunSpec `json:"run,omitempty"`
	// Sweep describes a parameter sweep (kind "sweep"): a named grid or
	// ad-hoc axes over a base scenario, exactly as cmd/jabasweep resolves
	// them.
	Sweep *jobspec.SweepSpec `json:"sweep,omitempty"`
	// Experiments describes an experiment-suite run (kind "experiments"),
	// exactly as cmd/jabaexp resolves it.
	Experiments *jobspec.ExperimentsSpec `json:"experiments,omitempty"`
	// DeadlineSec bounds the job's wall-clock run time in seconds; a job
	// still running at the deadline settles as failed with a deadline
	// error (0 = no deadline).
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// Retries re-runs a job that failed with a transient error up to this
	// many extra times, with exponential backoff between attempts.
	// Cancellations and deadline expiries are never retried.
	Retries int `json:"retries,omitempty"`
	// Chaos injects a failure into the worker running this job, for
	// resilience testing; rejected unless the server enables chaos
	// (Options.EnableChaos / jabaserve -chaos).
	Chaos *ChaosSpec `json:"chaos,omitempty"`
}

// ChaosSpec describes an injected failure. Chaos jobs exist to prove the
// server's fault containment from the outside: a panicking worker must fail
// only its job, and a hung job must be bounded by its deadline.
type ChaosSpec struct {
	// Mode is "panic" (the worker goroutine panics mid-job) or "hang"
	// (the job blocks for SleepSec — or until cancelled — before its real
	// work starts).
	Mode string `json:"mode"`
	// SleepSec is how long "hang" blocks; 0 blocks until the job is
	// cancelled or its deadline expires.
	SleepSec float64 `json:"sleep_sec,omitempty"`
}

func (c *ChaosSpec) validate() error {
	switch c.Mode {
	case "panic", "hang":
		return nil
	default:
		return fmt.Errorf(`serve: unknown chaos mode %q (want "panic" or "hang")`, c.Mode)
	}
}

// fire performs the injected failure at the start of a job attempt.
func (c *ChaosSpec) fire(ctx context.Context) error {
	switch c.Mode {
	case "panic":
		panic("chaos: injected worker panic")
	case "hang":
		var wake <-chan time.Time
		if c.SleepSec > 0 {
			t := time.NewTimer(time.Duration(c.SleepSec * float64(time.Second)))
			defer t.Stop()
			wake = t.C
		}
		select {
		case <-wake:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// JobStatus is the JSON view of a job returned by the job endpoints.
type JobStatus struct {
	// ID is the server-assigned job identifier used in the job URLs.
	ID string `json:"id"`
	// Kind echoes the submitted JobSpec.Kind.
	Kind string `json:"kind"`
	// State is the job's current lifecycle position.
	State JobState `json:"state"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Warnings flags a finished job whose result deserves scrutiny —
	// skipped admission cell-frames, greedy fallback solves — without
	// failing it.
	Warnings []string `json:"warnings,omitempty"`
	// Attempts counts started run attempts; above 1 means the job was
	// retried after transient failures.
	Attempts int `json:"attempts,omitempty"`
	// RowsDone counts emitted progress rows (grid points for a sweep, the
	// one row of a run, completed experiments for a suite); RowsTotal is
	// the expected count.
	RowsDone  int `json:"rows_done"`
	RowsTotal int `json:"rows_total,omitempty"`
	// Created and Finished are RFC 3339 timestamps; Finished is empty
	// until the job reaches a terminal state.
	Created  string `json:"created,omitempty"`
	Finished string `json:"finished,omitempty"`
}

// row is one unit of streamed job progress, carried in both framings the
// stream endpoint serves: CSV cells (for a sweep, exactly the jabasweep
// row) and a self-describing JSON event for NDJSON/SSE.
type row struct {
	cells []string
	event json.RawMessage
}

// runnable is a job's resolved work, produced at submission time so a bad
// spec fails the POST with a 400 instead of failing later inside a worker.
type runnable struct {
	header []string // CSV header cells, nil when the kind has no row stream
	total  int      // expected row count
	run    func(ctx context.Context, j *Job) error
}

// Job is one queued or running unit of server work.
type Job struct {
	// ID is the server-assigned identifier (see JobStatus.ID).
	ID string
	// Spec is the submission body the job was created from, verbatim.
	Spec JobSpec

	work   runnable
	ctx    context.Context
	cancel context.CancelFunc
	// journal is the job's crash-recovery record (empty when journaling is
	// off); it is removed once the job settles — except on server shutdown,
	// where an unfinished job's record survives for the next process.
	journal string

	mu       sync.Mutex
	state    JobState
	userStop bool // cancelled through the API, not by server shutdown
	err      string
	warnings []string
	attempts int
	rows     []row
	result   json.RawMessage
	created  time.Time
	finished time.Time
	updated  chan struct{} // closed and replaced on every state/row change
}

// newJob wraps resolved work for the queue.
func newJob(id string, spec JobSpec, work runnable, ctx context.Context, cancel context.CancelFunc) *Job {
	return &Job{
		ID:      id,
		Spec:    spec,
		work:    work,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		created: time.Now(),
		updated: make(chan struct{}),
	}
}

// broadcast wakes every stream follower. Callers hold j.mu.
func (j *Job) broadcast() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// appendRow records one completed progress row and wakes followers.
func (j *Job) appendRow(r row) {
	j.mu.Lock()
	j.rows = append(j.rows, r)
	j.broadcast()
	j.mu.Unlock()
}

// setWarnings attaches result-quality warnings before the job finishes.
func (j *Job) setWarnings(w []string) {
	if len(w) == 0 {
		return
	}
	j.mu.Lock()
	j.warnings = w
	j.mu.Unlock()
}

// finish records the job's outcome: done with a result, cancelled when the
// error is the job context's cancellation, failed otherwise.
func (j *Job) finish(err error, result json.RawMessage) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	j.finished = time.Now()
	j.broadcast()
	j.dropJournalLocked()
	j.mu.Unlock()
}

// dropJournalLocked removes the job's crash-recovery record once it settles.
// A cancellation that did not come through the API is the server shutting
// down — the job did not finish, so its record survives for the restart.
// Callers hold j.mu.
func (j *Job) dropJournalLocked() {
	if j.journal == "" {
		return
	}
	if j.state == StateCancelled && !j.userStop {
		return
	}
	os.Remove(j.journal)
}

// status snapshots the job for the JSON views.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Kind:      j.Spec.Kind,
		State:     j.state,
		Error:     j.err,
		Warnings:  j.warnings,
		Attempts:  j.attempts,
		RowsDone:  len(j.rows),
		RowsTotal: j.work.total,
		Created:   j.created.UTC().Format(time.RFC3339Nano),
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// resolve validates the spec and builds the job's work. The returned
// runnable closes over the resolved grid/config, so the expensive
// validation happens exactly once, at submission.
func (s JobSpec) resolve(defaultParallel int) (runnable, error) {
	specs := 0
	for _, set := range []bool{s.Run != nil, s.Sweep != nil, s.Experiments != nil} {
		if set {
			specs++
		}
	}
	if specs != 1 {
		return runnable{}, fmt.Errorf("serve: want exactly one of run/sweep/experiments, got %d", specs)
	}
	switch s.Kind {
	case "run":
		if s.Run == nil {
			return runnable{}, errors.New(`serve: kind "run" needs a "run" spec`)
		}
		return resolveRun(*s.Run, defaultParallel)
	case "sweep":
		if s.Sweep == nil {
			return runnable{}, errors.New(`serve: kind "sweep" needs a "sweep" spec`)
		}
		return resolveSweep(*s.Sweep, defaultParallel)
	case "experiments":
		if s.Experiments == nil {
			return runnable{}, errors.New(`serve: kind "experiments" needs an "experiments" spec`)
		}
		return resolveExperiments(*s.Experiments, defaultParallel)
	default:
		return runnable{}, fmt.Errorf("serve: unknown job kind %q (want run, sweep or experiments)", s.Kind)
	}
}

func resolveRun(spec jobspec.RunSpec, defaultParallel int) (runnable, error) {
	cfg, reps, err := spec.Resolve()
	if err != nil {
		return runnable{}, err
	}
	// A run is a sweep over a zero-axis grid: the same seeds as jabasim
	// -reps N and the one-row curve table jabasweep prints for it.
	grid := sweep.Grid{Preset: spec.Preset, Base: &cfg}
	stream := func(ctx context.Context, emit func(sweep.Result) error) error {
		return sweep.Stream(ctx, grid, sweep.Options{Reps: reps, Parallel: defaultParallel}, emit)
	}
	if spec.Checkpoint != nil {
		// Checkpoint-bearing runs drive a single engine directly, so the
		// periodic sink sees the one engine there is and a resume starts
		// it from the recorded frame; its metrics are a one-replication row.
		// The engine is built outside sim.Replicate, so it takes its frame
		// workers from the job's share of the CPUs by the same rule.
		cfg.FrameParallel = sim.FrameWorkers(cfg, 1, defaultParallel)
		stream = func(ctx context.Context, emit func(sweep.Result) error) error {
			e, err := spec.Start(cfg)
			if err != nil {
				return err
			}
			m, err := e.Run(ctx)
			if err != nil {
				return err
			}
			var agg sim.Aggregate
			agg.AddReplication(m)
			return emit(sweep.Result{Point: sweep.Point{Config: cfg}, Agg: &agg})
		}
	}
	return curveRunnable(grid, 1, stream), nil
}

func resolveSweep(spec jobspec.SweepSpec, defaultParallel int) (runnable, error) {
	grid, opts, err := spec.Resolve()
	if err != nil {
		return runnable{}, err
	}
	if opts.Parallel == 0 {
		// Concurrent jobs share the CPUs; an unbounded per-job fan-out
		// would oversubscribe them (the results are parallel-independent,
		// so this only shapes latency, never output).
		opts.Parallel = defaultParallel
	}
	points, err := grid.Points()
	if err != nil {
		return runnable{}, err
	}
	return curveRunnable(grid, len(points), func(ctx context.Context, emit func(sweep.Result) error) error {
		return sweep.Stream(ctx, grid, opts, emit)
	}), nil
}

// curveRunnable is the work of a job whose result is grid's curve table:
// the header up front, each result run emits streamed as its row (exactly
// the jabasweep CSV row), the rows' warnings on the status and the whole
// table as the JSON result.
func curveRunnable(grid sweep.Grid, total int, run func(ctx context.Context, emit func(sweep.Result) error) error) runnable {
	tbl := sweep.NewCurveTable(grid)
	header := append([]string(nil), tbl.Columns...)
	return runnable{
		header: header,
		total:  total,
		run: func(ctx context.Context, j *Job) error {
			var warnings []string
			err := run(ctx, func(r sweep.Result) error {
				for _, w := range sweep.Warnings(r.Agg) {
					if len(r.Values) > 0 {
						w = r.Label() + ": " + w
					}
					warnings = append(warnings, w)
				}
				cells := sweep.AppendCurveRow(tbl, r)
				event, err := json.Marshal(map[string]any{
					"index": r.Index,
					"label": r.Label(),
					"row":   rowMap(header, cells),
				})
				if err != nil {
					return err
				}
				j.appendRow(row{cells: append([]string(nil), cells...), event: event})
				return nil
			})
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := tbl.WriteJSON(&buf); err != nil {
				return err
			}
			j.setWarnings(warnings)
			j.finish(nil, buf.Bytes())
			return nil
		},
	}
}

func resolveExperiments(spec jobspec.ExperimentsSpec, defaultParallel int) (runnable, error) {
	defs, scale, err := spec.Resolve()
	if err != nil {
		return runnable{}, err
	}
	parallel := spec.Parallel
	if parallel == 0 {
		parallel = defaultParallel
	}
	return runnable{
		header: []string{"experiment", "title"},
		total:  len(defs),
		run: func(ctx context.Context, j *Job) error {
			tables := make([]json.RawMessage, 0, len(defs))
			err := experiments.StreamExperiments(ctx, defs, scale, parallel, func(i int, tbl *report.Table) error {
				var buf bytes.Buffer
				if err := tbl.WriteJSON(&buf); err != nil {
					return err
				}
				tables = append(tables, json.RawMessage(buf.String()))
				event, err := json.Marshal(map[string]any{
					"experiment": defs[i].ID,
					"title":      defs[i].Title,
					"table":      json.RawMessage(buf.String()),
				})
				if err != nil {
					return err
				}
				j.appendRow(row{cells: []string{defs[i].ID, defs[i].Title}, event: event})
				return nil
			})
			if err != nil {
				return err
			}
			result, err := json.Marshal(tables)
			if err != nil {
				return err
			}
			j.finish(nil, result)
			return nil
		},
	}, nil
}

// rowMap zips header cells with row cells for the NDJSON/SSE framing.
func rowMap(header, cells []string) map[string]string {
	m := make(map[string]string, len(header))
	for i, h := range header {
		if i < len(cells) {
			m[h] = cells[i]
		}
	}
	return m
}
