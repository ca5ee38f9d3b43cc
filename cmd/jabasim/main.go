// Command jabasim runs one burst-admission simulation scenario and prints
// the resulting metrics.
//
// Usage:
//
//	jabasim -preset smoke -scheduler jaba-sd -reps 2
//	jabasim -config scenario.json
//	jabasim -preset baseline -dump-config > scenario.json
//	jabasim -preset smoke -trace trace.csv -trace-every 10
//	jabasim -preset smoke -checkpoint state.ckpt -checkpoint-every 50
//	jabasim -resume state.ckpt
//	jabasim -preset smoke -solve-trace solves.jsonl
//	jabasim -replay solves.jsonl -scheduler jaba-sd-greedy -replay-out grants.csv
//
// The -preset flag selects a named scenario (see -list-presets); -config
// loads a JSON file produced by -dump-config. Individual flags override the
// chosen base configuration. -trace streams per-frame, per-cell telemetry
// (see internal/trace) to a file — CSV by default, JSON Lines when the path
// ends in .jsonl; with -reps > 1 only replication 0 is traced.
//
// -cpuprofile and -memprofile write standard runtime/pprof profiles covering
// the simulation (the scenario set-up and report printing are excluded from
// the CPU profile); inspect them with `go tool pprof`. With one replication
// the heap profile is written while the finished engine is still live, so
// its in-use views show the engine's heap by allocation site.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"jabasd/internal/fault"
	"jabasd/internal/jobspec"
	"jabasd/internal/replay"
	"jabasd/internal/report"
	"jabasd/internal/scenario"
	"jabasd/internal/sim"
	"jabasd/internal/sweep"
	"jabasd/internal/trace"
)

func main() {
	// SIGINT/SIGTERM cancel the context: in-flight replications stop at
	// their next frame and the command exits with the cancellation error
	// instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jabasim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jabasim", flag.ContinueOnError)
	var (
		preset      = fs.String("preset", scenario.PresetSmoke, "named scenario preset")
		configPath  = fs.String("config", "", "JSON scenario file (overrides -preset)")
		listPresets = fs.Bool("list-presets", false, "list available presets and exit")
		dumpConfig  = fs.Bool("dump-config", false, "print the effective config as JSON and exit")
		scheduler   = fs.String("scheduler", "", "scheduler: jaba-sd, jaba-sd-greedy, fcfs, equal-share, random")
		direction   = fs.String("direction", "", "link direction: forward or reverse")
		users       = fs.Int("data-users", -1, "data users per cell (override)")
		simTime     = fs.Float64("sim-time", -1, "simulated seconds (override)")
		seed        = fs.Uint64("seed", 0, "base random seed (override when non-zero)")
		reps        = fs.Int("reps", 1, "independent replications (parallel)")
		frameMode   = fs.String("framemode", "", "frame admission mode: sequential or snapshot (default: scenario's)")
		framePar    = fs.Int("frameparallel", -1, "frame workers: the user seeding at set-up, the per-user physics and burst rates in either frame mode, plus the snapshot-mode solves: 0 = auto (GOMAXPROCS split over the replications in flight: all of it for one run, inline once there are as many runs as CPUs), 1 = inline, -1 keeps the scenario's; results are byte-identical for any value")
		tracePath   = fs.String("trace", "", "write per-frame per-cell telemetry to this file (CSV, or JSONL when the path ends in .jsonl); replication 0 only when -reps > 1")
		traceEvery  = fs.Int("trace-every", 1, "sample every Nth frame into the -trace output")
		exactVTAOC  = fs.Bool("exact-vtaoc", false, "bit-exact reference physics: exact VTAOC integral, scalar-equivalent channel kernels and dB-domain pilot sets (golden-output mode; default is the fast SoA path)")
		faultsPath  = fs.String("faults", "", "JSON fault schedule file: cell outages/derates and load events (see internal/fault); exclusive with -fault-profile")
		faultProf   = fs.String("fault-profile", "", "named fault profile scaled to the scenario's sim time: none, outage, degrade, flashcrowd, rushhour")
		nodeBudget  = fs.Int("node-budget", -1, "cap the exact solver's branch-and-bound nodes per cell-frame; an over-budget solve falls back to the greedy policy (0 = unbounded, -1 keeps the scenario's)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file when the simulation finishes; every allocation is recorded (exact per-site figures, at the cost of a slower set-up), and with one replication the finished engine is still live, so -sample_index=inuse_space shows its heap by allocation site")
		ckptPath    = fs.String("checkpoint", "", "write a versioned engine-state checkpoint to this file (atomically) every -checkpoint-every frames; requires -reps 1")
		ckptEvery   = fs.Int("checkpoint-every", 0, "checkpoint cadence in frames (required with -checkpoint)")
		resumePath  = fs.String("resume", "", "resume from this checkpoint file; the scenario comes from the checkpoint, so -preset/-config must be unset (execution knobs like -frameparallel still apply)")
		solveTrace  = fs.String("solve-trace", "", "record every (frame, cell) scheduling problem and its grants to this JSONL file for later -replay; requires -reps 1")
		replayPath  = fs.String("replay", "", "re-solve a recorded solve trace instead of simulating: grants go to -replay-out; -scheduler overrides the recorded policy for a counterfactual")
		replayOut   = fs.String("replay-out", "", "grants CSV file for -replay (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replayPath != "" {
		if *resumePath != "" || *ckptPath != "" {
			return fmt.Errorf("-replay re-solves a recorded trace; it cannot combine with -checkpoint/-resume")
		}
		return runReplay(*replayPath, *scheduler, *replayOut, stdout)
	}
	if *listPresets {
		for _, n := range scenario.Names() {
			fmt.Fprintf(stdout, "%-12s %s\n", n, scenario.Describe(n))
		}
		return nil
	}
	if *memProfile != "" {
		// Record every allocation rather than one per 512 KiB, so the
		// profile's per-site in-use figures are exact. The rate must be set
		// before the engine allocates its state.
		runtime.MemProfileRate = 1
	}

	// The flags translate into the shared jobspec.RunSpec, so this CLI, the
	// other tools and the jabaserve HTTP API all resolve scenarios through
	// the same layering and conflict rules.
	spec := jobspec.RunSpec{Reps: *reps}
	presetSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "preset" {
			presetSet = true
		}
	})
	switch {
	case *resumePath != "":
		// The checkpoint itself is the scenario.
		if presetSet || *configPath != "" {
			return fmt.Errorf("-resume takes its scenario from the checkpoint; drop -preset/-config")
		}
	case *configPath != "":
		if presetSet {
			return fmt.Errorf("-preset and -config are exclusive; drop one")
		}
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		spec.Config = data
	default:
		spec.Preset = *preset
	}
	if *ckptPath != "" || *ckptEvery != 0 || *resumePath != "" {
		spec.Checkpoint = &jobspec.CheckpointSpec{Path: *ckptPath, Every: *ckptEvery, Resume: *resumePath}
	}
	spec.Overrides = jobspec.Overrides{
		Scheduler:    *scheduler,
		Direction:    *direction,
		Seed:         *seed,
		FrameMode:    *frameMode,
		ExactPHY:     *exactVTAOC,
		FaultProfile: *faultProf,
	}
	if *faultsPath != "" {
		data, err := os.ReadFile(*faultsPath)
		if err != nil {
			return err
		}
		var sched fault.Schedule
		if err := json.Unmarshal(data, &sched); err != nil {
			return fmt.Errorf("decode %s: %w", *faultsPath, err)
		}
		spec.Overrides.Faults = &sched
	}
	if *nodeBudget != -1 {
		if *nodeBudget < 0 {
			return fmt.Errorf("-node-budget must be >= 0 (or -1 to keep the scenario's), got %d", *nodeBudget)
		}
		spec.Overrides.NodeBudget = nodeBudget
	}
	if *users >= 0 {
		spec.Overrides.DataUsers = users
	}
	if *simTime > 0 {
		spec.Overrides.SimTime = *simTime
	}
	if *framePar != -1 {
		if *framePar < 0 {
			return fmt.Errorf("-frameparallel must be >= 0 (or -1 to keep the scenario's), got %d", *framePar)
		}
		spec.Overrides.FrameParallel = framePar
	}
	if *traceEvery < 0 {
		return fmt.Errorf("-trace-every must be >= 0, got %d", *traceEvery)
	}
	cfg, nreps, err := spec.Resolve()
	if err != nil {
		return err
	}

	if *dumpConfig {
		data, err := scenario.Encode(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}

	// Refuse before any output file is created, so a refused run leaves
	// existing files untouched.
	if *solveTrace != "" && nreps > 1 {
		return fmt.Errorf("-solve-trace records one engine; use -reps 1")
	}
	// Every output file is open before any is truncated, so a path that
	// cannot be opened fails the run with every existing file intact. The
	// deferred closes back failure paths only; success closes each file
	// explicitly below so a full disk surfaces as an error.
	sinks, err := report.OpenSinks(*cpuProfile, *memProfile, *tracePath, *solveTrace)
	if err != nil {
		return err
	}
	for _, f := range sinks {
		if f != nil {
			defer f.Close()
		}
	}
	cpuFile, memFile, traceFile, solveFile := sinks[0], sinks[1], sinks[2], sinks[3]
	if cpuFile != nil {
		if workers := sim.FrameWorkers(cfg, nreps, 0); workers > 1 {
			fmt.Fprintf(os.Stderr, "jabasim: warning: -cpuprofile with %d frame workers spreads frame-loop samples across pool goroutines; rerun with -frameparallel 1 for a flat single-stack profile\n", workers)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	// finishProfiles runs after the simulation so the CPU profile covers the
	// frame loop but not the report printing. The heap profile is written
	// after the run and a forced GC. Its alloc_space/alloc_objects views are
	// the run's cumulative allocation attribution. The single-replication
	// path keeps its engine reachable until the profile is written, so
	// inuse_space/inuse_objects are the finished engine's live heap; with
	// several replications the engines are gone and those views are near
	// empty.
	finishProfiles := func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *cpuProfile)
		}
		if memFile == nil {
			return nil
		}
		runtime.GC() // settle the heap statistics before snapshotting
		if err := pprof.WriteHeapProfile(memFile); err != nil {
			return err
		}
		if err := memFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "heap profile written to %s\n", *memProfile)
		return nil
	}

	if traceFile != nil {
		if strings.HasSuffix(*tracePath, ".jsonl") {
			cfg.Trace = trace.NewJSONL(traceFile)
		} else {
			cfg.Trace = trace.NewCSV(traceFile)
		}
		cfg.TraceEvery = *traceEvery
	}
	closeTrace := func() error {
		if traceFile == nil {
			return nil
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *tracePath)
		return nil
	}

	var solveBuf *bufio.Writer
	if solveFile != nil {
		solveBuf = bufio.NewWriter(solveFile)
		cfg.SolveTrace = solveBuf
	}
	closeSolveTrace := func() error {
		if solveFile == nil {
			return nil
		}
		if err := solveBuf.Flush(); err != nil {
			return err
		}
		if err := solveFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "solve trace written to %s\n", *solveTrace)
		return nil
	}

	if nreps <= 1 {
		// Start (rather than sim.Run) honours the checkpoint spec: a fresh
		// engine normally, the restored one when resuming.
		e, err := spec.Start(cfg)
		if err != nil {
			return err
		}
		if f := e.Frame(); f > 0 {
			fmt.Fprintf(os.Stderr, "resumed at frame %d\n", f)
		}
		m, err := e.Run(ctx)
		if err != nil {
			return err
		}
		if err := finishProfiles(); err != nil {
			return err
		}
		runtime.KeepAlive(e) // the heap profile's in-use views show the engine
		if err := closeTrace(); err != nil {
			return err
		}
		if err := closeSolveTrace(); err != nil {
			return err
		}
		printMetrics(stdout, m)
		return nil
	}
	agg, err := sim.RunReplications(ctx, cfg, nreps)
	if err != nil {
		return err
	}
	if err := finishProfiles(); err != nil {
		return err
	}
	if err := closeTrace(); err != nil {
		return err
	}
	// The replicated result is the one-row curve table jabasweep prints
	// for this scenario as a zero-axis sweep.
	tbl := sweep.NewCurveTable(sweep.Grid{})
	tbl.Title = agg.Scheduler + "/" + agg.Direction
	sweep.AppendCurveRow(tbl, sweep.Result{Agg: agg})
	if err := tbl.WriteASCII(stdout); err != nil {
		return err
	}
	printWarnings(stdout, agg)
	return nil
}

// runReplay re-solves a recorded solve trace without simulating: each
// recorded (frame, cell) problem is scheduled against its recorded requests
// and admissible region, under the recorded policy or — for a
// counterfactual — the -scheduler override, and the grants go out as a CSV
// that diffs row-for-row against any other replay of the same trace.
func runReplay(path, scheduler, outPath string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, problems, err := replay.ReadTrace(bufio.NewReader(f))
	if err != nil {
		return err
	}
	kind := hdr.Scheduler
	if scheduler != "" {
		kind = scheduler
	}
	sched, err := sim.NewScheduler(sim.SchedulerKind(kind), hdr.Seed)
	if err != nil {
		return err
	}
	assignments, err := replay.Resolve(hdr, problems, sched, hdr.Objective)
	if err != nil {
		return err
	}

	out := stdout
	var outFile *os.File
	if outPath != "" {
		g, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer g.Close()
		out, outFile = g, g
	}
	w := bufio.NewWriter(out)
	if err := replay.WriteGrantsCSV(w, problems, assignments); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "replayed %d problems under %s (recorded under %s)\n",
		len(problems), kind, hdr.Scheduler)
	return nil
}

// printWarnings prints the result-quality warnings of a result.
func printWarnings(w io.Writer, agg *sim.Aggregate) {
	for _, msg := range sweep.Warnings(agg) {
		fmt.Fprintln(w, "  WARNING:", msg)
	}
}

func printMetrics(w io.Writer, m *sim.Metrics) {
	fmt.Fprintln(w, m.String())
	fmt.Fprintf(w, "  bursts generated  : %d\n", m.BurstsGenerated)
	fmt.Fprintf(w, "  bursts completed  : %d\n", m.BurstsCompleted)
	fmt.Fprintf(w, "  mean delay        : %.3f s\n", m.MeanBurstDelay())
	fmt.Fprintf(w, "  p90 delay         : %.3f s\n", m.P90BurstDelay())
	fmt.Fprintf(w, "  mean admission wait: %.3f s\n", m.AdmissionWait.Mean())
	fmt.Fprintf(w, "  throughput / cell : %.0f bit/s\n", m.ThroughputPerCell())
	fmt.Fprintf(w, "  coverage          : %.3f\n", m.Coverage())
	fmt.Fprintf(w, "  mean cell load    : %.3f\n", m.CellLoad.Mean())
	fmt.Fprintf(w, "  mean queue length : %.2f\n", m.QueueLength.Mean())
	fmt.Fprintf(w, "  mean granted ratio: %.2f\n", m.AssignedRatio.Mean())
	if m.OutageCellFrames > 0 || m.SpilloverHandoffs > 0 {
		fmt.Fprintf(w, "  outage cell-frames: %d\n", m.OutageCellFrames)
		fmt.Fprintf(w, "  spillover handoffs: %d\n", m.SpilloverHandoffs)
	}
	if m.SolveRetries > 0 {
		fmt.Fprintf(w, "  solve retries     : %d\n", m.SolveRetries)
	}
	fmt.Fprintf(w, "  skipped cell-frames: %g\n", float64(m.SkippedCells))
	if m.FallbackSolves > 0 {
		fmt.Fprintf(w, "  fallback solves   : %g\n", float64(m.FallbackSolves))
	}
	var agg sim.Aggregate
	agg.AddReplication(m)
	printWarnings(w, &agg)
}
