// Multi-cell dynamic simulation: the workload the paper's evaluation is
// built around. A 7-cell (1-ring) wideband CDMA network with mobility,
// shadowing, fast fading, voice background load and WWW-style data bursts is
// simulated once per scheduler, and the headline metrics — average burst
// delay, 90th percentile delay, per-cell data throughput and coverage — are
// compared between JABA-SD and the FCFS / equal-share baselines.
//
// Run with:
//
//	go run ./examples/multicell
package main

import (
	"context"
	"fmt"
	"log"

	"jabasd/internal/sim"
)

func main() {
	cfg := sim.DefaultConfig()
	cfg.Rings = 1 // 7 cells keeps the example fast; use 2 for the paper's 19
	cfg.SimTime = 30
	cfg.WarmupTime = 5
	cfg.DataUsersPerCell = 12
	cfg.VoiceUsersPerCell = 8
	cfg.Data.MeanReadingTimeSec = 5

	kinds := []sim.SchedulerKind{sim.SchedulerJABASD, sim.SchedulerFCFS, sim.SchedulerEqualShare}

	fmt.Printf("Simulating %d s over %d cells with %d data users/cell (%s link)\n\n",
		int(cfg.SimTime), 7, cfg.DataUsersPerCell, cfg.Direction)
	fmt.Printf("%-14s %12s %12s %16s %10s %10s\n",
		"scheduler", "mean delay", "p90 delay", "tput/cell (bps)", "coverage", "cell load")

	// One configuration per scheduler, all at the same seed (common random
	// numbers), replicated twice in one fan-out and emitted in kind order.
	cfgs := make([]sim.Config, len(kinds))
	for i, k := range kinds {
		cfgs[i] = cfg
		cfgs[i].Scheduler = k
	}
	var jabaDelay, fcfsDelay float64
	err := sim.Replicate(context.Background(), cfgs, 2, 0, func(i int, a *sim.Aggregate) error {
		fmt.Printf("%-14s %10.3f s %10.3f s %16.0f %10.3f %10.3f\n",
			kinds[i], a.MeanDelay.Mean(), a.P90Delay.Mean(), a.Throughput.Mean(),
			a.Coverage.Mean(), a.CellLoad.Mean())
		switch kinds[i] {
		case sim.SchedulerJABASD:
			jabaDelay = a.MeanDelay.Mean()
		case sim.SchedulerFCFS:
			fcfsDelay = a.MeanDelay.Mean()
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if fcfsDelay > 0 {
		fmt.Printf("\nJABA-SD mean delay is %.0f%% of the FCFS baseline's.\n", 100*jabaDelay/fcfsDelay)
	}
}
