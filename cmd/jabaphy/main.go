// Command jabaphy explores the adaptive physical layer on its own: it prints
// the VTAOC mode table (constant-BER adaptation thresholds), the Rayleigh
// averaged throughput across a CSI sweep, and optionally a time trace of the
// mode selection over a simulated fading channel.
//
// Usage:
//
//	jabaphy                       # mode table + throughput sweep
//	jabaphy -ber 1e-4 -modes 6    # different operating point
//	jabaphy -trace 2 -csi 18      # 2-second mode trace at 18 dB mean CSI
package main

import (
	"flag"
	"fmt"
	"os"

	"jabasd/internal/mathx"
	"jabasd/internal/report"
	"jabasd/internal/rng"
	"jabasd/internal/vtaoc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jabaphy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("jabaphy", flag.ContinueOnError)
	var (
		ber     = fs.Float64("ber", 1e-3, "target bit error rate (constant-BER operation)")
		modes   = fs.Int("modes", 6, "number of VTAOC transmission modes")
		trace   = fs.Float64("trace", 0, "seconds of fading trace to print (0 = none)")
		csi     = fs.Float64("csi", 15, "mean CSI in dB for the fading trace")
		doppler = fs.Float64("doppler", 55, "Doppler frequency in Hz for the fading trace")
		seed    = fs.Uint64("seed", 1, "random seed for the fading trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := vtaoc.DefaultConfig()
	cfg.TargetBER = *ber
	cfg.NumModes = *modes
	coder, err := vtaoc.New(cfg)
	if err != nil {
		return err
	}

	modeTable := report.NewTable(fmt.Sprintf("VTAOC mode table (%d modes, target BER %.1e)", *modes, *ber),
		"mode", "bits_per_symbol", "min_CSI_dB")
	for _, m := range coder.Modes() {
		modeTable.AddRow(m.Index, m.Throughput, m.MinCSIDB)
	}
	if err := modeTable.WriteASCII(os.Stdout); err != nil {
		return err
	}

	sweep := report.NewTable("Average throughput vs mean CSI (Rayleigh fading)",
		"mean_CSI_dB", "avg_bits_per_symbol", "outage_prob")
	for c := -5.0; c <= 30; c += 2.5 {
		sweep.AddRow(c, coder.AverageThroughput(c), coder.OutageProbability(c))
	}
	fmt.Println()
	if err := sweep.WriteASCII(os.Stdout); err != nil {
		return err
	}

	if *trace > 0 {
		fmt.Println()
		jakes := rng.NewJakesBatch(1, 16, *doppler)
		jakes.SeedUser(0, rng.New(*seed))
		tr := report.NewTable(fmt.Sprintf("Mode trace at %.1f dB mean CSI, %.0f Hz Doppler", *csi, *doppler),
			"t_ms", "inst_CSI_dB", "mode", "bits_per_symbol")
		step := 0.005
		for t := 0.0; t < *trace; t += step {
			p := jakes.PowerAt(0, t)
			if p < 1e-12 {
				p = 1e-12
			}
			instCSI := *csi + mathx.DB(p)
			mode := coder.SelectMode(instCSI)
			tr.AddRow(t*1000, instCSI, mode, coder.ModeThroughput(mode))
		}
		if err := tr.WriteASCII(os.Stdout); err != nil {
			return err
		}
	}

	// Show the rate plan implied SCH bit rates for context.
	plan := vtaoc.DefaultRatePlan()
	fmt.Println()
	rates := report.NewTable("SCH bit rate (kbit/s) vs spreading ratio m and average throughput",
		"m", "bp=0.125", "bp=0.25", "bp=0.5", "bp=1.0")
	for m := 1; m <= plan.MaxSpreadingRatio; m *= 2 {
		rates.AddRow(m,
			plan.SCHBitRate(m, 0.125)/1000,
			plan.SCHBitRate(m, 0.25)/1000,
			plan.SCHBitRate(m, 0.5)/1000,
			plan.SCHBitRate(m, 1.0)/1000)
	}
	return rates.WriteASCII(os.Stdout)
}
