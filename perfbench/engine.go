package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jabasd/internal/scenario"
	"jabasd/internal/sim"
)

// engineWorkload is a simulator workload: a scenario preset run for a fixed
// number of frames, timed frame by frame. The frame count is --seconds at
// the workload's nominal frame rate (its rate on a 2-core reference box),
// not a time limit: frame cost changes as traffic builds up over simulated
// time, so every run and every commit must simulate the same frames.
type engineWorkload struct {
	preset     string
	nominalFPS float64 // steady frames run per --seconds
	warmup     int     // frames run untimed before the steady window
	minSteady  int     // steady frames the tail needs, whatever --seconds says
	setupReps  int     // constructions whose median is setup_s
}

var (
	// metroWorkload builds in ~10 ms, so setup_s is the median of 51
	// builds.
	metroWorkload = engineWorkload{preset: scenario.PresetMetro, nominalFPS: 400,
		warmup: 250, minSteady: 2000, setupReps: 51}
	// cityWorkload builds in ~1 s, so setup_s is a single build; 110
	// steady frames leave 11 beyond the p90.
	cityWorkload = engineWorkload{preset: scenario.PresetCity, nominalFPS: 5.5,
		warmup: 6, minSteady: 110, setupReps: 1}
)

// steadyFrames is the number of frames timed in a run measuring d, but no
// fewer than floor.
func (w engineWorkload) steadyFrames(d time.Duration, floor int) int {
	return max(int(w.nominalFPS*d.Seconds()), floor)
}

// frameClock timestamps frame boundaries through the engine's checkpoint
// hook, the only frame-boundary hook open to callers. Its sink never calls
// write, so no checkpoint is taken and the run's outputs are unchanged.
type frameClock struct {
	start time.Time
	at    []time.Duration // at[f] is when frame f ended; at[0] is 0
}

func (c *frameClock) stamp(frame int, _ func(io.Writer) error) error {
	c.at[frame] = time.Since(c.start)
	return nil
}

// steady returns the durations (ms) of the frames after the first from.
func (c *frameClock) steady(from int) []float64 {
	d := make([]float64, 0, len(c.at)-1-from)
	for f := from + 1; f < len(c.at); f++ {
		d = append(d, ms(c.at[f]-c.at[f-1]))
	}
	return d
}

// rate returns the median, over segments runs of equally many steady
// frames after the first from, of their frame rate.
func (c *frameClock) rate(from int) float64 {
	n := len(c.at) - 1 - from
	rates := make([]float64, segments)
	for k := range rates {
		lo, hi := from+k*n/segments, from+(k+1)*n/segments
		rates[k] = float64(hi-lo) / (c.at[hi] - c.at[lo]).Seconds()
	}
	return median(rates)
}

// config returns the workload's scenario at seed, sized to run exactly
// frames frames. A non-nil clock is attached to time each frame.
func (w engineWorkload) config(seed uint64, frames, parallel int, clock *frameClock) (sim.Config, error) {
	cfg, err := scenario.Lookup(w.preset)
	if err != nil {
		return cfg, err
	}
	cfg.Seed = seed
	// Run executes ceil(SimTime/FrameLength) frames; the half frame keeps
	// rounding from adding one.
	cfg.SimTime = (float64(frames) - 0.5) * cfg.FrameLength
	if cfg.WarmupTime >= cfg.SimTime {
		cfg.WarmupTime = cfg.SimTime / 2
	}
	cfg.FrameParallel = parallel
	if clock != nil {
		clock.at = make([]time.Duration, frames+1)
		cfg.CheckpointEvery = 1
		cfg.CheckpointSink = clock.stamp
	}
	return cfg, nil
}

// engineRun is one finished Engine.Run.
type engineRun struct {
	metrics   *sim.Metrics
	wall, cpu time.Duration
	rt0, rt1  runtimeStats
}

// runEngine runs e to completion, starting clock (if any) with it.
func runEngine(e *sim.Engine, clock *frameClock) (engineRun, error) {
	r := engineRun{rt0: readRuntime()}
	cpu0 := cpuTime()
	start := time.Now()
	if clock != nil {
		clock.start = start
	}
	m, err := e.Run(context.Background())
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	r.rt1 = readRuntime()
	r.metrics = m
	return r, err
}

// build constructs an engine after a forced collection, so garbage from an
// earlier engine is not collected on the new one's time.
func build(cfg sim.Config) (*sim.Engine, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	e, err := sim.NewEngine(cfg)
	return e, time.Since(start), err
}

func (w engineWorkload) run(o options, trace bool) (*report, error) {
	if trace {
		return w.layers(o)
	}
	return w.endToEnd(o)
}

// endToEnd measures set-up, frame throughput, frame latency and live heap.
func (w engineWorkload) endToEnd(o options) (*report, error) {
	steady := w.steadyFrames(o.seconds, w.minSteady)
	frames := w.warmup + steady
	clock := &frameClock{}
	cfg, err := w.config(o.seed, frames, 0, clock)
	if err != nil {
		return nil, err
	}
	var e *sim.Engine
	setups := make([]float64, 0, w.setupReps)
	for range w.setupReps {
		if e != nil {
			e.Close()
			e = nil // unreachable before build's collection
		}
		var d time.Duration
		if e, d, err = build(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	r, err := runEngine(e, clock)
	if err != nil {
		return nil, err
	}
	durs := clock.steady(w.warmup)
	p50, err := percentile(durs, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(durs, 0.90)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMiB()
	runtime.KeepAlive(e)

	rep := newReport()
	// An engine workload's operation is a frame.
	rep.metrics.add("throughput_per_s", clock.rate(w.warmup), "1/s")
	rep.metrics.add("latency_ms_p50", p50, "ms")
	rep.metrics.add("latency_ms_p90", p90, "ms")
	rep.metrics.add("setup_s", median(setups), "s")
	rep.metrics.add("heap_mb", heap, "MiB")
	rep.attempted = int64(frames) * int64(r.metrics.Cells)
	rep.failed = r.metrics.SkippedCells
	rep.sample("steady_frames", steady)
	rep.sample("warmup_frames", w.warmup)
	rep.sample("setup_builds", len(setups))
	return rep, nil
}

// layers makes three runs of the same frames at the same seed: untraced
// with the default frame workers (A), traced with a CPU profile and a solve
// trace (B), and untraced inline with FrameParallel=1 (C). All three must
// produce identical sim.Metrics.
func (w engineWorkload) layers(o options) (*report, error) {
	steady := w.steadyFrames(o.seconds/3, 10) // no tail is taken here
	frames := w.warmup + steady
	runs := make([]engineRun, 3)
	var solves bytes.Buffer
	profile := filepath.Join(o.workdir, fmt.Sprintf("%s-%d.pprof", w.preset, os.Getpid()))
	defer os.Remove(profile)
	for i, parallel := range []int{0, 0, 1} {
		cfg, err := w.config(o.seed, frames, parallel, nil)
		if err != nil {
			return nil, err
		}
		if i == 1 {
			cfg.SolveTrace = &solves
		}
		e, _, err := build(cfg)
		if err != nil {
			return nil, err
		}
		if i == 1 {
			err = cpuProfile(profile, func() (err error) { runs[i], err = runEngine(e, nil); return err })
		} else {
			runs[i], err = runEngine(e, nil)
		}
		if err != nil {
			return nil, err
		}
	}
	a, b, c := runs[0], runs[1], runs[2]

	rep := newReport()
	rep.attempted = 3 * int64(frames) * int64(a.metrics.Cells)
	rep.failed = a.metrics.SkippedCells + b.metrics.SkippedCells + c.metrics.SkippedCells
	ref := fmt.Sprintf("%#v", *a.metrics)
	for _, other := range []engineRun{b, c} {
		if fmt.Sprintf("%#v", *other.metrics) != ref {
			rep.failed++
			fmt.Fprintln(os.Stderr, "jababench: sim.Metrics differ between the untraced, traced and inline runs")
		}
	}

	tr, err := readSolveTrace(solves.Bytes())
	if err != nil {
		return nil, err
	}
	solves = bytes.Buffer{}
	bad, err := tr.verify()
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(len(tr.problems))
	rep.failed += int64(bad)
	st, err := tr.timeSolves(2000)
	if err != nil {
		return nil, err
	}
	if err := st.metrics(rep.metrics, len(tr.problems), frames, a.cpu); err != nil {
		return nil, err
	}
	if err := handlerLayer(rep, tr, 1000); err != nil {
		return nil, err
	}

	// The solve-trace recorder is the traced run's own cost, not a layer.
	shares, err := profileShares(profile, `-ignore=jabasd/internal/replay\.`)
	if err != nil {
		return nil, err
	}
	for m, s := range shares {
		rep.metrics.add(m+".cpu_share", s, "fraction")
	}

	workers := float64(runtime.GOMAXPROCS(0))
	speedup := c.wall.Seconds() / a.wall.Seconds()
	serial := 1.0
	if workers > 1 {
		serial = min(max((workers/speedup-1)/(workers-1), 0), 1)
	}
	rep.metrics.add("sim.cores_busy", a.cpu.Seconds()/a.wall.Seconds(), "cores")
	rep.metrics.add("sim.serial_fraction", serial, "fraction")
	rep.metrics.add("sim.parallel_efficiency", speedup/workers, "fraction")
	addRuntime(rep.metrics, a.rt0, a.rt1, frames)
	rep.metrics.add("trace.overhead", b.wall.Seconds()/a.wall.Seconds()-1, "fraction")
	rep.sample("frames_per_run", frames)
	rep.sample("solves", len(tr.problems))
	rep.sample("timed_solves", len(st.timesUS))
	return rep, nil
}
