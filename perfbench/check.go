package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"time"

	"jabasd/internal/core"
	"jabasd/internal/replay"
	"jabasd/internal/sim"
)

// grantTol is the absolute slack allowed on a region row: the exact
// solver's own feasibility test (ilp.Problem) accepts a row that overshoots
// its bound by up to 1e-7, and recorded grants that overshoot by ~2e-8 occur.
const grantTol = 1e-7

// checkGrant reports whether ratios are an admissible grant for p: every
// ratio lies in [0, min(maxRatio, request cap)] and every region row the
// grant loads holds, Coeff·m <= Bound. A row the grant puts no load on is
// not checked: its cell may already be over budget (Bound < 0), which
// forbids adding load there but not granting requests that do not touch it,
// as the greedy scheduler does.
func checkGrant(p *replay.Problem, maxRatio int, ratios []int) error {
	if len(ratios) != len(p.Requests) {
		return fmt.Errorf("frame %d cell %d: %d ratios for %d requests", p.Frame, p.Cell, len(ratios), len(p.Requests))
	}
	for j, m := range ratios {
		if m < 0 || m > min(maxRatio, p.Requests[j].MaxRatio) {
			return fmt.Errorf("frame %d cell %d: ratio %d of request %d outside its cap", p.Frame, p.Cell, m, j)
		}
	}
	for i, row := range p.Region.Coeff {
		sum := 0.0
		for j, a := range row {
			sum += a * float64(ratios[j])
		}
		if b := p.Region.Bound[i]; sum > 0 && sum > b+grantTol {
			return fmt.Errorf("frame %d cell %d: row %d uses %g of bound %g", p.Frame, p.Cell, i, sum, b)
		}
	}
	return nil
}

// solveTrace is a recorded solve trace with its header.
type solveTrace struct {
	hdr      replay.Header
	problems []*replay.Problem
}

// readSolveTrace parses a solve trace recorded into memory.
func readSolveTrace(b []byte) (solveTrace, error) {
	hdr, problems, err := replay.ReadTrace(bytes.NewReader(b))
	return solveTrace{hdr, problems}, err
}

// verify counts the recorded problems whose grants break their region, and
// those whose grants a replay under the recorded scheduler does not
// reproduce. Every problem is one checked operation.
func (t solveTrace) verify() (failed int, err error) {
	for _, p := range t.problems {
		if err := checkGrant(p, t.hdr.MaxRatio, p.Ratios); err != nil {
			fmt.Fprintln(os.Stderr, "jababench:", err)
			failed++
		}
	}
	sched, err := sim.NewScheduler(sim.SchedulerKind(t.hdr.Scheduler), t.hdr.Seed)
	if err != nil {
		return failed, err
	}
	got, err := replay.Resolve(t.hdr, t.problems, sched, t.hdr.Objective)
	if err != nil {
		return failed, err
	}
	for i, a := range got {
		if !slices.Equal(a.Ratios, t.problems[i].Ratios) {
			p := t.problems[i]
			fmt.Fprintf(os.Stderr, "jababench: frame %d cell %d: replay granted %v, recorded %v\n", p.Frame, p.Cell, a.Ratios, p.Ratios)
			failed++
		}
	}
	return failed, nil
}

// solveStats describes the scheduling layer on a solve trace.
type solveStats struct {
	timesUS   []float64     // per-solve wall time of core.JABASD.Schedule
	firstPass time.Duration // summed solve time of one pass over the trace
	offered   int           // requests
	granted   int           // requests given a non-zero ratio
	greedy    int           // problems above the exact solver's size limit
	fallbacks int           // solves that hit a node budget
}

// timeSolves times a warm core.JABASD on every problem of the trace, passing
// over the trace until at least minSamples solves were timed.
func (t solveTrace) timeSolves(minSamples int) (solveStats, error) {
	var st solveStats
	if len(t.problems) == 0 {
		return st, fmt.Errorf("solve trace holds no problems")
	}
	s := core.NewJABASD()
	for pass := 0; pass == 0 || len(st.timesUS) < minSamples; pass++ {
		for _, p := range t.problems {
			prob := core.Problem{Requests: p.Requests, Region: p.Region, MaxRatio: t.hdr.MaxRatio,
				Objective: t.hdr.Objective, MAC: &t.hdr.MAC}
			start := time.Now()
			a, err := s.Schedule(prob)
			d := time.Since(start)
			if err != nil {
				return st, err
			}
			st.timesUS = append(st.timesUS, us(d))
			if pass > 0 {
				continue
			}
			st.firstPass += d
			st.offered += len(p.Requests)
			st.granted += a.Served()
			if len(p.Requests) > s.GreedyFallbackSize {
				st.greedy++
			}
			if a.Fallback {
				st.fallbacks++
			}
		}
	}
	return st, nil
}

// metrics adds the core.* per-layer metrics. frames is the number of frames
// the trace spans; shareBase is the time the solves are compared with.
func (st solveStats) metrics(out metricSet, problems, frames int, shareBase time.Duration) error {
	p50, err := percentile(st.timesUS, 0.50)
	if err != nil {
		return err
	}
	p99, err := percentile(st.timesUS, 0.99)
	if err != nil {
		return err
	}
	out.add("core.solves_per_frame", float64(problems)/float64(frames), "1/frame")
	out.add("core.solve_us_p50", p50, "us")
	out.add("core.solve_us_p99", p99, "us")
	out.add("core.share_of_frame", float64(st.firstPass)/float64(shareBase), "fraction")
	out.add("core.grant_ratio", float64(st.granted)/float64(max(st.offered, 1)), "fraction")
	out.add("core.greedy_share", float64(st.greedy)/float64(problems), "fraction")
	out.add("core.fallbacks", float64(st.fallbacks), "count")
	return nil
}
