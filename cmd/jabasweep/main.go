// Command jabasweep runs parameter sweeps over the scenario presets and
// renders paper-style curve tables: one row per grid point with admission
// probability, throughput and outage plus across-replication confidence
// intervals. The grid is the cross product of repeatable -axis flags
// anchored on a -preset, or one of the built-in named grids (-grid).
// (point × replication) work items fan out over a worker pool; output is
// identical for a fixed seed no matter what -parallel is.
//
// Usage:
//
//	jabasweep -preset smoke -axis datausers=2,4 -reps 2          # 2-point load curve
//	jabasweep -preset baseline -axis datausers=4,12,24 -axis scheduler=jaba-sd,fcfs
//	jabasweep -grid paper-load-sweep -reps 4 -o curves.csv       # the paper's load axis
//	jabasweep -preset smoke -axis speed=1:5,14:28 -format json
//	jabasweep -grid paper-load-sweep -points                     # dry run: list the points
//	jabasweep -preset smoke -axis datausers=2,4 -trace trace.csv # per-point telemetry
//	jabasweep -list-grids                                        # built-in named grids
//	jabasweep -list-axes                                         # axis syntax reference
//
// -trace additionally writes one frame-level telemetry CSV covering every
// grid point: each point's replication 0 is traced (see internal/trace)
// and its rows appear in grid order, prefixed with the point index and
// label, so transient behaviour can be compared across the swept axis.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"jabasd/internal/jobspec"
	"jabasd/internal/report"
	"jabasd/internal/scenario"
	"jabasd/internal/sweep"
	"jabasd/internal/trace"
)

func main() {
	// SIGINT/SIGTERM cancel the sweep: completed points stay written (CSV
	// streams row by row), queued work never starts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jabasweep:", err)
		os.Exit(1)
	}
}

// axisFlags collects repeated -axis specifications.
type axisFlags []string

func (a *axisFlags) String() string { return strings.Join(*a, " ") }

func (a *axisFlags) Set(v string) error {
	*a = append(*a, v)
	return nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jabasweep", flag.ContinueOnError)
	var axes axisFlags
	fs.Var(&axes, "axis", "axis spec name=v1,v2,... (repeatable; see -list-axes)")
	var (
		presetName = fs.String("preset", scenario.PresetSmoke, "scenario preset anchoring every grid point")
		configPath = fs.String("config", "", "JSON scenario file anchoring every grid point (excludes -preset/-grid)")
		gridName   = fs.String("grid", "", "built-in named grid (see -list-grids; excludes -preset/-axis)")
		reps       = fs.Int("reps", 1, "independent replications per grid point")
		parallel   = fs.Int("parallel", 0, "CPU budget: at most this many (point x replication) runs in flight, and auto frame workers split it so runs times workers stay within it (0 = GOMAXPROCS)")
		seed       = fs.Uint64("seed", 0, "base random seed (0 keeps the preset's)")
		frameMode  = fs.String("framemode", "", "frame admission mode override for every point: sequential or snapshot")
		framePar   = fs.Int("frameparallel", -1, "per-run frame workers override (the user seeding at set-up, the per-user physics and burst rates in either frame mode, plus the snapshot-mode solves): 0 = auto (the -parallel budget split over the runs in flight: all of it for one run, inline once there are as many runs as the budget), 1 = inline, -1 keeps each point's; results are byte-identical for any value")
		format     = fs.String("format", "csv", "output format: csv or json")
		outPath    = fs.String("o", "", "output file (default stdout)")
		tracePath  = fs.String("trace", "", "write per-frame per-cell telemetry of every point's replication 0 to this CSV file")
		traceEvery = fs.Int("trace-every", 1, "sample every Nth frame into the -trace output")
		exactVTAOC = fs.Bool("exact-vtaoc", false, "bit-exact reference physics for every point: exact VTAOC integral, scalar-equivalent channel kernels and dB-domain pilot sets (golden-output mode)")
		dryRun     = fs.Bool("points", false, "list the expanded grid points and exit (dry run)")
		listGrids  = fs.Bool("list-grids", false, "list the built-in named grids and exit")
		listAxes   = fs.Bool("list-axes", false, "list the sweepable axes and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown format %q (want csv or json)", *format)
	}
	if *framePar < -1 {
		return fmt.Errorf("-frameparallel must be >= 0 (or -1 to keep each point's), got %d", *framePar)
	}
	if *traceEvery < 0 {
		return fmt.Errorf("-trace-every must be >= 0, got %d", *traceEvery)
	}

	if *listAxes {
		for _, line := range sweep.Axes() {
			fmt.Fprintln(stdout, line)
		}
		return nil
	}
	if *listGrids {
		for _, g := range sweep.Grids() {
			points, err := g.Points()
			if err != nil {
				return err
			}
			axisNames := make([]string, len(g.Axes))
			for i, ax := range g.Axes {
				axisNames[i] = fmt.Sprintf("%s(%d)", ax.Name, len(ax.Values))
			}
			fmt.Fprintf(stdout, "%-18s preset=%s axes=%s points=%d\n",
				g.Name, g.Preset, strings.Join(axisNames, "x"), len(points))
		}
		return nil
	}

	// The flags translate into the shared jobspec.SweepSpec, so the
	// grid/preset/config/axis/override conflict rules and the point
	// expansion are exactly the ones the jabaserve HTTP API applies.
	spec := jobspec.SweepSpec{
		Grid:     *gridName,
		Axes:     axes,
		Reps:     *reps,
		Parallel: *parallel,
		Overrides: jobspec.Overrides{
			Seed:      *seed,
			FrameMode: *frameMode,
			ExactPHY:  *exactVTAOC,
		},
	}
	if *framePar >= 0 {
		spec.Overrides.FrameParallel = framePar
	}
	presetSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "preset" {
			presetSet = true
		}
	})
	switch {
	case *configPath != "":
		if presetSet {
			return fmt.Errorf("-preset and -config are exclusive; drop one")
		}
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		spec.Scenario.Config = data
	case presetSet || *gridName == "":
		// The preset default only applies when no named grid (which carries
		// its own preset) was chosen; an explicit -preset next to -grid is
		// the conflict Resolve rejects.
		spec.Preset = *presetName
	}
	grid, opts, err := spec.Resolve()
	if err != nil {
		return err
	}

	if *dryRun {
		points, err := grid.Points()
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Fprintf(stdout, "%3d  %s\n", p.Index, p.Label())
		}
		fmt.Fprintf(stdout, "%d points x %d reps = %d runs\n", len(points), *reps, len(points)**reps)
		return nil
	}

	// Both output files are open before either is truncated, so a path
	// that cannot be opened fails the sweep with every existing file
	// intact. Close errors matter (a full disk surfaces at the final
	// flush), so success closes each file explicitly below; the deferred
	// closes only back failure paths, where the write error already wins.
	sinks, err := report.OpenSinks(*outPath, *tracePath)
	if err != nil {
		return err
	}
	for _, f := range sinks {
		if f != nil {
			defer f.Close()
		}
	}
	outFile, traceFile := sinks[0], sinks[1]
	w := stdout
	if outFile != nil {
		w = outFile
	}

	// CSV streams: the header goes out up front and each row as soon as its
	// point (and every earlier point) completes, so a failure late in a long
	// sweep keeps every finished row. JSON needs the closing brackets, so it
	// is rendered only once the whole sweep succeeds.
	tbl := sweep.NewCurveTable(grid)
	if *format == "csv" {
		if _, err := io.WriteString(w, report.CSVLine(tbl.Columns)); err != nil {
			return err
		}
	}
	// Per-point telemetry: each point's replication 0 records into its own
	// in-memory sink (points run concurrently; a sink is single-writer),
	// and the rows stream to the trace file in grid order as each point
	// emits, prefixed with the point index and label.
	var traceSinks []*trace.Memory
	if traceFile != nil {
		if _, err := io.WriteString(traceFile, report.CSVLine(append([]string{"point", "label"}, trace.Columns()...))); err != nil {
			return err
		}
		opts.TraceEvery = *traceEvery
		opts.Trace = func(p sweep.Point) trace.Sink {
			for len(traceSinks) <= p.Index {
				traceSinks = append(traceSinks, &trace.Memory{})
			}
			return traceSinks[p.Index]
		}
	}
	writePointTrace := func(r sweep.Result) error {
		if traceFile == nil {
			return nil
		}
		prefix := []string{strconv.Itoa(r.Index), r.Label()}
		row := make([]string, 0, len(prefix)+len(trace.Columns()))
		var sb strings.Builder
		for _, rec := range traceSinks[r.Index].Records {
			row = rec.AppendRow(append(row[:0], prefix...))
			sb.WriteString(report.CSVLine(row))
		}
		// Release the point's records through the shared sink: the sweep
		// runner holds the same *trace.Memory until the sweep finishes, so
		// only clearing the slice inside it actually frees the memory.
		traceSinks[r.Index].Records = nil
		traceSinks[r.Index] = nil
		_, err := io.WriteString(traceFile, sb.String())
		return err
	}

	err = sweep.Stream(ctx, grid, opts, func(r sweep.Result) error {
		fmt.Fprintf(os.Stderr, "point %d/%s done (%d reps)\n", r.Index, r.Label(), r.Agg.Replications)
		for _, msg := range sweep.Warnings(r.Agg) {
			fmt.Fprintf(os.Stderr, "WARNING: point %d/%s: %s\n", r.Index, r.Label(), msg)
		}
		if err := writePointTrace(r); err != nil {
			return err
		}
		row := sweep.AppendCurveRow(tbl, r)
		if *format == "csv" {
			_, err := io.WriteString(w, report.CSVLine(row))
			return err
		}
		return nil
	})
	if err != nil {
		if *format == "csv" && tbl.NumRows() > 0 {
			fmt.Fprintf(os.Stderr, "kept %d completed rows\n", tbl.NumRows())
		}
		return err
	}
	if *format == "json" {
		if err := tbl.WriteJSON(w); err != nil {
			return err
		}
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", tbl.NumRows(), *outPath)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *tracePath)
	}
	return nil
}
