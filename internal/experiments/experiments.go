// Package experiments defines the reproducible experiment suite E1-E14:
// every evaluation claim and diagram of the paper is mapped to a generator
// that runs the necessary simulations or analytic computations and returns
// a results table, and the transient experiments E11-E14 extend the suite
// with the frame-level time-series view (internal/trace) the paper's
// steady-state tables leave out. The registry is the one entry point: it
// backs the cmd/jabaexp binary (full scale) and the root-level benchmarks,
// so recorded numbers can be regenerated with either.
package experiments

import (
	"context"
	"fmt"

	"jabasd/internal/core"
	"jabasd/internal/ilp"
	"jabasd/internal/load"
	"jabasd/internal/mathx"
	"jabasd/internal/measurement"
	"jabasd/internal/report"
	"jabasd/internal/rng"
	"jabasd/internal/sim"
	"jabasd/internal/vtaoc"
)

// Scale controls how much simulated time and how many replications the
// dynamic-simulation experiments use.
type Scale struct {
	Name         string
	SimTime      float64
	WarmupTime   float64
	Rings        int
	Replications int
	LoadPoints   []int // data users per cell for the load sweeps
	// ExactPHY runs the dynamic experiments on the engine's bit-exact
	// reference physics instead of the default fast SoA kernels — the mode
	// cmd/jabaexp's -exact-vtaoc flag selects to keep golden outputs stable.
	ExactPHY bool
	// Set by StreamExperiments: each sim.Replicate call's bound, and the
	// steady-state aggregates run so far by sim.SemanticConfigJSON.
	parallel int
	done     map[string]*sim.Aggregate
}

// Quick is the scale used by unit tests and benchmarks: small but large
// enough that every code path is exercised and the qualitative orderings
// (JABA-SD vs baselines) are usually visible.
var Quick = Scale{
	Name:         "quick",
	SimTime:      20,
	WarmupTime:   4,
	Rings:        1,
	Replications: 1,
	LoadPoints:   []int{6, 14},
}

// Full is the scale of the full-scale tables, `jabaexp -scale full`.
var Full = Scale{
	Name:         "full",
	SimTime:      60,
	WarmupTime:   10,
	Rings:        2,
	Replications: 4,
	LoadPoints:   []int{6, 10, 14, 18, 22},
}

// baseConfig returns the scenario shared by the dynamic experiments. The
// traffic is deliberately heavy (short reading times, large heavy-tailed
// documents) so that the burst admission layer is the bottleneck — that is
// the regime the paper's evaluation targets; at light load every scheduler
// trivially grants every request and the algorithms are indistinguishable.
func baseConfig(s Scale) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.SimTime = s.SimTime
	cfg.WarmupTime = s.WarmupTime
	cfg.Rings = s.Rings
	cfg.Data.MeanReadingTimeSec = 3
	cfg.Data.MinSizeBits = 200_000
	cfg.Data.MaxSizeBits = 3_000_000
	// A tighter power budget and a heavier voice background make the forward
	// link power-limited, as in the paper's setting, so the admission layer
	// (not the raw link speed) is the bottleneck at the higher load points.
	cfg.VoiceUsersPerCell = 16
	cfg.VoiceChannelW = 0.4
	cfg.MaxCellPowerW = 10
	cfg.FCHEbIoTargetDB = 9
	// "Covered" means the burst was actually served at high speed: at least
	// 16x the fundamental-channel rate (~59 kbit/s with the default plan).
	cfg.CoverageRateFraction = 16
	cfg.ExactPHY = s.ExactPHY
	return cfg
}

// ---------------------------------------------------------------------------
// E1: adaptive physical layer throughput vs mean CSI (Figure 1 mechanism).
// ---------------------------------------------------------------------------

// e1AdaptivePhyThroughput tabulates the Rayleigh-averaged VTAOC throughput,
// the outage probability, and the throughput of two fixed-mode baselines as
// the local-mean CSI sweeps from -5 to +30 dB.
func e1AdaptivePhyThroughput(context.Context, Scale) (*report.Table, error) {
	coder, err := vtaoc.New(vtaoc.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fixedLow, err := vtaoc.NewFixedRate(coder, 2)
	if err != nil {
		return nil, err
	}
	fixedHigh, err := vtaoc.NewFixedRate(coder, 5)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E1: VTAOC average throughput vs mean CSI (target BER 1e-3)",
		"meanCSIdB", "adaptive_bits_per_symbol", "fixed_mode2", "fixed_mode5", "outage_prob")
	for csi := -5.0; csi <= 30.0; csi += 2.5 {
		t.AddRow(csi,
			coder.AverageThroughput(csi),
			fixedLow.AverageThroughput(csi),
			fixedHigh.AverageThroughput(csi),
			coder.OutageProbability(csi))
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// E2: mode occupancy over a fading trace (Figure 1b, typical frame).
// ---------------------------------------------------------------------------

// e2ModeOccupancy simulates a Rayleigh-faded CSI trace of 200,000 symbols
// at a mean CSI of 15 dB and compares the empirical mode occupancy with the
// analytic distribution.
func e2ModeOccupancy(context.Context, Scale) (*report.Table, error) {
	const meanCSIdB, samples = 15.0, 200_000
	coder, err := vtaoc.New(vtaoc.DefaultConfig())
	if err != nil {
		return nil, err
	}
	src := rng.New(42)
	counts := make([]int, coder.NumModes()+1)
	for i := 0; i < samples; i++ {
		instCSI := meanCSIdB + mathx.DB(src.RayleighPower())
		counts[coder.SelectMode(instCSI)]++
	}
	analytic := coder.ModeDistribution(meanCSIdB)
	t := report.NewTable(
		fmt.Sprintf("E2: VTAOC mode occupancy at mean CSI %.1f dB (%d symbols)", meanCSIdB, samples),
		"mode", "throughput", "empirical_fraction", "analytic_fraction")
	for q := 0; q <= coder.NumModes(); q++ {
		t.AddRow(q, coder.ModeThroughput(q),
			float64(counts[q])/float64(samples), analytic[q])
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// E3: forward-link multiple-burst admission optimality (eq. 7 + 19).
// ---------------------------------------------------------------------------

// e3ForwardAdmission generates random single-cell forward-link admission
// instances for increasing numbers of concurrent requests (scaleInstances
// per size) and reports the mean objective achieved by each scheduler
// relative to the exhaustive optimum.
func e3ForwardAdmission(_ context.Context, s Scale) (*report.Table, error) {
	t := report.NewTable("E3: scheduler objective relative to the exhaustive optimum (forward link, J1)",
		"concurrent_requests", "jaba_sd", "greedy", "fcfs", "equal_share", "random")
	src := rng.New(7)
	for nd := 1; nd <= 6; nd++ {
		sums := make([]float64, len(t.Columns)-1) // one per scheduler column
		count := 0
		for inst := 0; inst < scaleInstances(s); inst++ {
			p, err := randomForwardProblem(src, nd, 4)
			if err != nil {
				return nil, err
			}
			opt, err := exhaustiveOptimum(p)
			if err != nil {
				return nil, err
			}
			if opt <= 1e-9 {
				continue
			}
			count++
			for k, sched := range []core.Scheduler{core.NewJABASD(), &core.GreedyJABASD{},
				&core.FCFS{}, &core.EqualShare{}, core.NewRandom(uint64(inst))} {
				a, err := sched.Schedule(p)
				if err != nil {
					return nil, err
				}
				sums[k] += a.Objective / opt
			}
		}
		if count == 0 {
			continue
		}
		row := []any{nd}
		for _, sum := range sums {
			row = append(row, sum/float64(count))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// randomForwardProblem builds a random single-cell admission instance.
func randomForwardProblem(src *rng.Source, nd, maxRatio int) (core.Problem, error) {
	reqs := make([]core.Request, nd)
	fwd := make([]measurement.ForwardRequest, nd)
	for j := 0; j < nd; j++ {
		reqs[j] = core.Request{
			UserID:        j,
			SizeBits:      src.Uniform(50_000, 2_000_000),
			WaitingTime:   src.Uniform(0, 15),
			AvgThroughput: src.Uniform(0.05, 1),
			MaxRatio:      maxRatio,
		}
		fwd[j] = measurement.ForwardRequest{
			UserID:   j,
			FCHPower: load.FromMap(map[int]float64{0: src.Uniform(0.1, 1.0)}),
			Alpha:    1,
		}
	}
	region, err := measurement.ForwardRegion(measurement.ForwardState{
		CurrentLoad: []float64{src.Uniform(5, 15)},
		MaxLoad:     20,
		GammaS:      1.25,
	}, fwd)
	if err != nil {
		return core.Problem{}, err
	}
	return core.Problem{
		Requests:  reqs,
		Region:    region,
		MaxRatio:  maxRatio,
		Objective: core.Objective{Kind: core.ObjectiveThroughput},
	}, nil
}

// exhaustiveOptimum computes the exact optimum of a small admission problem.
func exhaustiveOptimum(p core.Problem) (float64, error) {
	ub := make([]int, len(p.Requests))
	c := make([]float64, len(p.Requests))
	for j, r := range p.Requests {
		ub[j] = min(r.MaxRatio, p.MaxRatio)
		c[j] = r.AvgThroughput * (1 + r.Priority)
	}
	res, err := ilp.Exhaustive(ilp.Problem{C: c, A: p.Region.Coeff, B: p.Region.Bound, Upper: ub})
	if err != nil {
		return 0, err
	}
	if !res.Feasible {
		return 0, nil
	}
	return res.Objective, nil
}

// ---------------------------------------------------------------------------
// E4: reverse-link admission with SCRM neighbour protection (eq. 17).
// ---------------------------------------------------------------------------

// e4ReverseAdmission builds scaleInstances random multi-cell reverse-link
// instances and verifies/reports that every scheduler's assignment respects
// both the host cell and the projected neighbour-cell interference budgets,
// together with how much of the interference budget each scheduler uses.
func e4ReverseAdmission(_ context.Context, s Scale) (*report.Table, error) {
	instances := scaleInstances(s)
	t := report.NewTable("E4: reverse-link admission — budget use and violations",
		"scheduler", "mean_served", "mean_budget_use", "violations")
	src := rng.New(11)
	schedulers := []core.Scheduler{core.NewJABASD(), &core.GreedyJABASD{}, &core.FCFS{}, &core.EqualShare{}}
	type acc struct {
		served, use float64
		violations  int
	}
	results := make([]acc, len(schedulers))
	for i := 0; i < instances; i++ {
		p, err := randomReverseProblem(src, 2+src.Intn(4))
		if err != nil {
			return nil, err
		}
		for k, sched := range schedulers {
			a, err := sched.Schedule(p)
			if err != nil {
				return nil, err
			}
			r := &results[k]
			r.served += float64(a.Served())
			if !p.Region.Feasible(a.Ratios) {
				r.violations++
			}
			worst := 0.0
			for rIdx, h := range p.Region.Headroom(a.Ratios) {
				if total := p.Region.Bound[rIdx]; total > 0 {
					worst = max(worst, 1-h/total)
				}
			}
			r.use += worst
		}
	}
	for k, sched := range schedulers {
		r := results[k]
		t.AddRow(sched.Name(), r.served/float64(instances), r.use/float64(instances), r.violations)
	}
	return t, nil
}

// randomReverseProblem builds a random 3-cell reverse-link instance. All
// interference quantities are normalised by the thermal noise power (rise
// over thermal units), as in the simulator.
func randomReverseProblem(src *rng.Source, nd int) (core.Problem, error) {
	state := measurement.ReverseState{
		TotalReceived: []float64{src.Uniform(2, 6), src.Uniform(2, 6), src.Uniform(2, 6)},
		MaxReceived:   10,
		GammaS:        1.25,
		ShadowMargin:  1.5,
	}
	reqs := make([]core.Request, nd)
	rev := make([]measurement.ReverseRequest, nd)
	for j := 0; j < nd; j++ {
		host := src.Intn(3)
		neighbour := (host + 1 + src.Intn(2)) % 3
		reqs[j] = core.Request{
			UserID:        j,
			SizeBits:      src.Uniform(50_000, 2_000_000),
			WaitingTime:   src.Uniform(0, 10),
			AvgThroughput: src.Uniform(0.05, 1),
			MaxRatio:      8,
		}
		rev[j] = measurement.ReverseRequest{
			UserID:       j,
			HostCell:     host,
			ReversePilot: load.FromMap(map[int]float64{host: src.Uniform(0.001, 0.02)}),
			SCRM: measurement.NewSCRM(load.FromMap(map[int]float64{
				host:      src.Uniform(0.02, 0.1),
				neighbour: src.Uniform(0.001, 0.05),
			})),
			Zeta:  4,
			Alpha: 1,
		}
	}
	region, err := measurement.ReverseRegion(state, rev)
	if err != nil {
		return core.Problem{}, err
	}
	return core.Problem{
		Requests:  reqs,
		Region:    region,
		MaxRatio:  8,
		Objective: core.DefaultObjective(),
	}, nil
}

// scaleInstances is the number of random instances E3 (per size) and E4
// draw at a scale.
func scaleInstances(s Scale) int {
	if s.Name == "full" {
		return 60
	}
	return 15
}
