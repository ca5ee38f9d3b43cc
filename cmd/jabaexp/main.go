// Command jabaexp regenerates the experiment suite E1-E14 and prints every
// results table. The suite is read from the experiments registry (the one
// entry point of internal/experiments, also behind experiment job specs),
// so the tool and the library can never disagree about what E<n> means.
// Each distinct configuration is simulated once (E6 reads E5's runs). With
// -out it also writes one CSV file per experiment into the given directory.
//
// Usage:
//
//	jabaexp                 # quick scale, all experiments, ASCII tables
//	jabaexp -scale full     # full-scale tables (minutes of run time)
//	jabaexp -only E1,E3     # subset (unknown ids are rejected)
//	jabaexp -out results/   # additionally write CSV files
//	jabaexp -parallel 4     # bound the simulation runs in flight
//	jabaexp -list           # list the registered experiments and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"jabasd/internal/experiments"
	"jabasd/internal/jobspec"
	"jabasd/internal/report"
)

func main() {
	// SIGINT/SIGTERM cancel the suite: tables already printed (and their
	// CSVs written) stay; running experiments stop at the next frame.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jabaexp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("jabaexp", flag.ContinueOnError)
	var (
		scaleName = fs.String("scale", "quick", "experiment scale: quick or full")
		only      = fs.String("only", "", "comma separated experiment ids to run (e.g. E1,E5); empty = all")
		outDir    = fs.String("out", "", "directory to write CSV results into (optional)")
		parallel  = fs.Int("parallel", 0, "CPU budget: at most this many simulation runs in flight, and auto frame workers split it so runs times workers stay within it (0 = GOMAXPROCS)")
		exact     = fs.Bool("exact-vtaoc", false, "run the dynamic experiments on the bit-exact reference physics (exact VTAOC integral, scalar-equivalent channel kernels) instead of the fast SoA path")
		list      = fs.Bool("list", false, "list the registered experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, d := range experiments.Registry() {
			kind := "dynamic"
			if d.Analytic {
				kind = "analytic"
			}
			fmt.Printf("%-4s %-9s %s\n", d.ID, kind, d.Title)
		}
		return nil
	}

	// The flags translate into the shared jobspec.ExperimentsSpec, so the
	// id selection and scale rules match the jabaserve HTTP API exactly.
	spec := jobspec.ExperimentsSpec{Scale: *scaleName, Parallel: *parallel, ExactPHY: *exact}
	if *only != "" {
		spec.Only = strings.Split(*only, ",")
	}
	defs, scale, err := spec.Resolve()
	if err != nil {
		return err
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	// Stream the tables in suite order as they complete, so a failure late in
	// a long run still leaves every earlier table printed and its CSV written.
	return experiments.StreamExperiments(ctx, defs, scale, *parallel, func(i int, tbl *report.Table) error {
		fmt.Printf("\n")
		if err := tbl.WriteASCII(os.Stdout); err != nil {
			return err
		}
		if *outDir == "" {
			return nil
		}
		path := filepath.Join(*outDir, strings.ToLower(defs[i].ID)+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tbl.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("(written to %s)\n", path)
		return nil
	})
}
