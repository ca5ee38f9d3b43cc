package core

import (
	"errors"
	"sort"

	"jabasd/internal/ilp"
	"jabasd/internal/rng"
)

// Scheduler is a scheduling sub-layer algorithm: given a frame's admission
// problem it returns an admissible assignment of spreading ratios.
//
// Schedule must not retain the problem or mutate anything outside the
// scheduler's own state: the simulation engine's snapshot frame mode solves
// many cells' problems concurrently, one scheduler instance per worker (see
// Cloner). A scheduler whose output depends on internal mutable state — a
// random stream, warm-started solver memory — must additionally implement
// CellSeeder so its draws are a pure function of (frame, cell) rather than
// of the order the workers happen to solve cells in.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Schedule solves one frame. Implementations must return an assignment
	// that satisfies the problem's admissible region and upper bounds.
	Schedule(p Problem) (Assignment, error)
}

// Cloner is implemented by schedulers that can hand out independent
// instances of themselves, one per frame-admission worker. Stateless
// schedulers return a plain copy; stateful ones must return an instance
// whose state is disjoint from the receiver's. The engine refuses to run
// the snapshot frame mode with a scheduler that does not implement Cloner
// (enforced in sim.NewEngine and by TestAllSchedulersImplementCloner).
type Cloner interface {
	Scheduler
	// Clone returns an independent scheduler instance with the same
	// configuration.
	Clone() Scheduler
}

// CellSeeder is implemented by schedulers with internal randomness. Before
// solving cell k of frame f in snapshot mode, the engine calls
// SeedCell(f, k) on the worker's clone, making the scheduler's draws depend
// only on the (frame, cell) pair — and therefore the simulation output
// byte-identical for any worker count and any cell→worker assignment.
type CellSeeder interface {
	SeedCell(frame, cell uint64)
}

// ErrInvalidProblem wraps validation failures.
var ErrInvalidProblem = errors.New("core: invalid problem")

// ---------------------------------------------------------------------------
// JABA-SD (optimal): branch-and-bound solution of the integer programme.
// ---------------------------------------------------------------------------

// JABASD is the jointly adaptive burst admission — spatial dimension
// scheduler: it solves the frame's integer programme exactly (branch and
// bound over the LP relaxation). The "jointly adaptive" part is that the
// utility of every request already reflects the channel-adaptive physical
// layer through bp_j, so good-channel users are naturally favoured by J1
// while J2 folds the waiting time back in.
//
// A JABASD owns a warm ilp.Solver and the scratch buffers the programme is
// assembled into, so its steady-state Schedule performs a single allocation
// (the returned Ratios slice; pinned by TestJABASDScheduleAllocs). It is not
// safe for concurrent use — the snapshot frame mode gives each worker its
// own instance via Clone.
type JABASD struct {
	// GreedyFallbackSize is the request count above which the scheduler
	// switches to the greedy heuristic to bound per-frame work. Zero means
	// always exact.
	GreedyFallbackSize int
	// NodeBudget, when positive, bounds the branch-and-bound search at that
	// many nodes per solve (the deterministic analogue of a per-frame time
	// budget — node counts are a pure function of the problem, so outputs
	// stay byte-identical for any worker/tile count). A solve that hits the
	// budget is redone with the greedy heuristic and the returned assignment
	// carries Fallback = true, which the engine counts and traces. Zero
	// means unbudgeted (only the solver's global safety valve applies).
	NodeBudget int

	solver  ilp.Solver
	scratch ilpScratch
	greedy  GreedyJABASD // fallback instance, reused across frames
}

// NewJABASD returns the exact JABA-SD scheduler with a greedy fallback for
// frames with more than 12 concurrent requests.
func NewJABASD() *JABASD { return &JABASD{GreedyFallbackSize: 12} }

// Name implements Scheduler.
func (s *JABASD) Name() string { return "JABA-SD" }

// Clone implements Cloner. The clone carries the configuration but owns a
// fresh solver and scratch, so it shares no mutable state with the receiver.
func (s *JABASD) Clone() Scheduler {
	return &JABASD{GreedyFallbackSize: s.GreedyFallbackSize, NodeBudget: s.NodeBudget}
}

// Schedule implements Scheduler.
func (s *JABASD) Schedule(p Problem) (Assignment, error) {
	if err := p.Validate(); err != nil {
		return Assignment{}, err
	}
	if len(p.Requests) == 0 {
		return Assignment{Ratios: []int{}, Scheduler: s.Name()}, nil
	}
	if s.GreedyFallbackSize > 0 && len(p.Requests) > s.GreedyFallbackSize {
		a, err := s.greedy.Schedule(p)
		if err != nil {
			return Assignment{}, err
		}
		a.Scheduler = s.Name()
		return a, nil
	}
	prob, reqs := p.toILP(&s.scratch)
	s.solver.MaxNodes = s.NodeBudget
	res, err := s.solver.Solve(prob)
	if err != nil {
		return Assignment{}, err
	}
	if s.NodeBudget > 0 && res.Capped {
		// The exact search exhausted its per-solve node budget: degrade
		// deterministically to the greedy heuristic instead of returning an
		// unproven incumbent, and mark the assignment so the engine can
		// count and trace the fallback. (The size-based GreedyFallbackSize
		// shortcut above is a steady-state policy, not a degradation, and is
		// deliberately not flagged.)
		a, err := s.greedy.Schedule(p)
		if err != nil {
			return Assignment{}, err
		}
		a.Scheduler = s.Name()
		a.Fallback = true
		return a, nil
	}
	if !res.Feasible {
		// Even the all-zero assignment violates a constraint (a cell is
		// already over budget): reject everything.
		zero := make([]int, len(p.Requests))
		return Assignment{
			Ratios:    zero,
			Objective: p.Objective.Value(reqs, zero),
			Scheduler: s.Name(),
		}, nil
	}
	ratios := append([]int(nil), res.X...) // res.X aliases the solver's buffer
	return Assignment{
		Ratios:    ratios,
		Objective: p.Objective.Value(reqs, ratios),
		Scheduler: s.Name(),
	}, nil
}

// ---------------------------------------------------------------------------
// Greedy JABA-SD: marginal-utility ascent (scales to large request counts).
// ---------------------------------------------------------------------------

// GreedyJABASD is the scalable variant of JABA-SD: it repeatedly grants one
// unit of spreading ratio to the request with the highest utility coefficient
// whose increment keeps the assignment admissible, until no increment fits.
// Because the objective is linear and all constraint coefficients are
// non-negative, this is a classic greedy for a multi-dimensional knapsack;
// it is optimal when a single constraint binds and near-optimal otherwise
// (verified against the exact solver in the tests and benchmarks).
//
// The working vectors live in owned scratch buffers reused across frames, so
// the steady-state Schedule performs a single allocation (the returned
// Ratios slice). Not safe for concurrent use; Clone hands out independent
// instances.
type GreedyJABASD struct {
	scratch ilpScratch
	m       []int
	single  []int
	bestM   []int
	head    []float64
	head0   []float64
	headS   []float64
}

// Name implements Scheduler.
func (s *GreedyJABASD) Name() string { return "JABA-SD-greedy" }

// Clone implements Cloner. The clone owns fresh scratch.
func (s *GreedyJABASD) Clone() Scheduler { return &GreedyJABASD{} }

// resize readies the integer scratch vectors for n requests, zeroed.
func (s *GreedyJABASD) resize(n int) {
	grow := func(buf []int) []int {
		if cap(buf) < n {
			return make([]int, n)
		}
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	s.m = grow(s.m)
	s.single = grow(s.single)
	s.bestM = grow(s.bestM)
}

// Schedule implements Scheduler.
func (s *GreedyJABASD) Schedule(p Problem) (Assignment, error) {
	if err := p.Validate(); err != nil {
		return Assignment{}, err
	}
	n := len(p.Requests)
	if n == 0 {
		return Assignment{Ratios: []int{}, Scheduler: s.Name()}, nil
	}
	s.resize(n)
	m := s.m
	reqs := p.Requests
	if p.MAC != nil {
		s.scratch.reqs = p.effectiveRequestsInto(s.scratch.reqs)
		reqs = s.scratch.reqs
	}
	s.scratch.util = p.Objective.utilityCoefficientsInto(s.scratch.util, reqs)
	util := s.scratch.util
	s.scratch.ub = p.upperBoundsInto(s.scratch.ub)
	ub := s.scratch.ub

	// Per-request "cost" per unit of m in each constraint row is constant, so
	// rank candidates by utility per unit of (normalised) cost, refreshing
	// feasibility on every grant. Remaining headroom per constraint row:
	s.head = p.Region.HeadroomInto(s.head, m)
	head := s.head
	// The zero assignment's headroom, kept for the single-request pass.
	s.head0 = append(s.head0[:0], head...)
	for {
		// Build the candidate list of requests that can still take one unit.
		best := -1
		bestScore := 0.0
		for j := 0; j < n; j++ {
			if m[j] >= ub[j] || util[j] <= 0 {
				continue
			}
			// Check one increment against every row and compute a congestion
			// aware score: utility divided by the max fractional row usage.
			feas := true
			maxUse := 0.0
			for i, row := range p.Region.Coeff {
				c := row[j]
				if c <= 0 {
					continue
				}
				if c > head[i]+1e-12 {
					feas = false
					break
				}
				if head[i] > 0 {
					use := c / head[i]
					if use > maxUse {
						maxUse = use
					}
				}
			}
			if !feas {
				continue
			}
			score := util[j]
			if maxUse > 0 {
				score = util[j] / maxUse
			} else {
				// Unconstrained increment: infinitely cheap, prefer highest utility.
				score = util[j] * 1e9
			}
			if best == -1 || score > bestScore {
				best, bestScore = j, score
			}
		}
		if best < 0 {
			break
		}
		m[best]++
		for i, row := range p.Region.Coeff {
			head[i] -= row[best]
		}
	}

	// Density-greedy alone can be arbitrarily bad when one lumpy request
	// blocks the budget; also evaluate the best "serve a single request as
	// hard as possible" assignment and keep whichever scores higher. This
	// gives the classic 1/2-approximation guarantee for the single-constraint
	// (knapsack) case and helps the multi-cell case too.
	copy(s.bestM, m)
	bestVal := p.Objective.Value(reqs, m)
	// single is all-zero outside entry j, which each pass resets, so every
	// pass starts from the zero assignment's headroom.
	single := s.single
	s.headS = append(s.headS[:0], s.head0...)
	h := s.headS
	for j := 0; j < n; j++ {
		if util[j] <= 0 || ub[j] == 0 {
			continue
		}
		copy(h, s.head0)
		for single[j] < ub[j] {
			feas := true
			for i, row := range p.Region.Coeff {
				if row[j] > h[i]+1e-12 {
					feas = false
					break
				}
			}
			if !feas {
				break
			}
			single[j]++
			for i, row := range p.Region.Coeff {
				h[i] -= row[j]
			}
		}
		if v := p.Objective.Value(reqs, single); v > bestVal {
			bestVal = v
			copy(s.bestM, single)
		}
		single[j] = 0
	}
	return Assignment{
		Ratios:    append([]int(nil), s.bestM...),
		Objective: bestVal,
		Scheduler: s.Name(),
	}, nil
}

// ---------------------------------------------------------------------------
// FCFS (cdma2000 baseline).
// ---------------------------------------------------------------------------

// FCFS is the cdma2000-style baseline: burst requests are handled strictly
// first-come-first-served; the oldest request is granted the largest
// admissible spreading ratio, then the next oldest gets whatever is left,
// and so on. With a single request this coincides with the single-burst
// assignment of the cdma2000 literature.
type FCFS struct{}

// Name implements Scheduler.
func (s *FCFS) Name() string { return "FCFS" }

// Clone implements Cloner.
func (s *FCFS) Clone() Scheduler { return &FCFS{} }

// Schedule implements Scheduler.
func (s *FCFS) Schedule(p Problem) (Assignment, error) {
	if err := p.Validate(); err != nil {
		return Assignment{}, err
	}
	n := len(p.Requests)
	m := make([]int, n)
	reqs := p.effectiveRequests()
	ub := p.upperBounds()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Oldest first (largest waiting time).
	sort.SliceStable(order, func(a, b int) bool {
		return reqs[order[a]].WaitingTime > reqs[order[b]].WaitingTime
	})
	head := p.Region.Headroom(m)
	for _, j := range order {
		grant := 0
		for grant < ub[j] {
			feas := true
			for i, row := range p.Region.Coeff {
				if row[j] > head[i]+1e-12 {
					feas = false
					break
				}
			}
			if !feas {
				break
			}
			grant++
			for i, row := range p.Region.Coeff {
				head[i] -= row[j]
			}
		}
		m[j] = grant
	}
	return Assignment{
		Ratios:    m,
		Objective: p.Objective.Value(reqs, m),
		Scheduler: s.Name(),
	}, nil
}

// ---------------------------------------------------------------------------
// Equal share baseline.
// ---------------------------------------------------------------------------

// EqualShare is the empirical baseline of the paper's reference [8]: the
// available resource is shared equally between the pending requests — every
// request gets the same spreading ratio (capped by its own upper bound), the
// largest uniform value that remains admissible.
type EqualShare struct{}

// Name implements Scheduler.
func (s *EqualShare) Name() string { return "EqualShare" }

// Clone implements Cloner.
func (s *EqualShare) Clone() Scheduler { return &EqualShare{} }

// Schedule implements Scheduler.
func (s *EqualShare) Schedule(p Problem) (Assignment, error) {
	if err := p.Validate(); err != nil {
		return Assignment{}, err
	}
	n := len(p.Requests)
	reqs := p.effectiveRequests()
	ub := p.upperBounds()
	best := make([]int, n)
	for level := 1; level <= p.MaxRatio; level++ {
		trial := make([]int, n)
		for j := 0; j < n; j++ {
			v := level
			if v > ub[j] {
				v = ub[j]
			}
			trial[j] = v
		}
		if p.Region.Feasible(trial) {
			copy(best, trial)
		} else {
			break
		}
	}
	if !p.Region.Feasible(best) {
		// Even level 0 may be infeasible when a cell is over budget; report zeros.
		for j := range best {
			best[j] = 0
		}
	}
	return Assignment{
		Ratios:    best,
		Objective: p.Objective.Value(reqs, best),
		Scheduler: s.Name(),
	}, nil
}

// ---------------------------------------------------------------------------
// Random baseline.
// ---------------------------------------------------------------------------

// Random grants requests in a uniformly random order, each taking the
// largest admissible ratio; useful as a sanity floor in the experiments.
// In sequential frame admission it consumes one stream in cell order; under
// the snapshot frame mode the engine reseeds each clone per (frame, cell)
// via SeedCell, so the permutations do not depend on worker scheduling.
type Random struct {
	Src  *rng.Source
	seed uint64
}

// NewRandom creates a Random scheduler with its own stream.
func NewRandom(seed uint64) *Random { return &Random{Src: rng.New(seed), seed: seed} }

// Name implements Scheduler.
func (s *Random) Name() string { return "Random" }

// Clone implements Cloner. The clone starts from the same base seed but owns
// its stream; snapshot-mode workers always reseed it per cell before use.
func (s *Random) Clone() Scheduler { return NewRandom(s.seed) }

// SeedCell implements CellSeeder: the stream is re-derived in place from the
// base seed and the (frame, cell) pair, so the subsequent permutation is a
// pure function of those indices.
func (s *Random) SeedCell(frame, cell uint64) {
	if s.Src == nil {
		s.Src = rng.New(s.seed)
	}
	// Decorrelate the three inputs with distinct 64-bit odd multipliers
	// (splitmix64/Weyl constants) before handing them to the generator's
	// own seed expander.
	s.Src.Reseed(s.seed ^ (frame+1)*0x9e3779b97f4a7c15 ^ (cell+1)*0xbf58476d1ce4e5b9)
}

// Schedule implements Scheduler.
func (s *Random) Schedule(p Problem) (Assignment, error) {
	if err := p.Validate(); err != nil {
		return Assignment{}, err
	}
	n := len(p.Requests)
	m := make([]int, n)
	reqs := p.effectiveRequests()
	ub := p.upperBounds()
	src := s.Src
	if src == nil {
		src = rng.New(1)
		s.Src = src
	}
	order := src.Perm(n)
	head := p.Region.Headroom(m)
	for _, j := range order {
		grant := 0
		for grant < ub[j] {
			feas := true
			for i, row := range p.Region.Coeff {
				if row[j] > head[i]+1e-12 {
					feas = false
					break
				}
			}
			if !feas {
				break
			}
			grant++
			for i, row := range p.Region.Coeff {
				head[i] -= row[j]
			}
		}
		m[j] = grant
	}
	return Assignment{
		Ratios:    m,
		Objective: p.Objective.Value(reqs, m),
		Scheduler: s.Name(),
	}, nil
}

var (
	_ Cloner     = (*JABASD)(nil)
	_ Cloner     = (*GreedyJABASD)(nil)
	_ Cloner     = (*FCFS)(nil)
	_ Cloner     = (*EqualShare)(nil)
	_ Cloner     = (*Random)(nil)
	_ CellSeeder = (*Random)(nil)
)
