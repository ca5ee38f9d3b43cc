// Package core implements the paper's primary contribution: the scheduling
// sub-layer of the jointly adaptive burst admission algorithm (JABA-SD).
//
// Every frame, the Nd pending burst requests in a cell are assigned integer
// spreading-gain ratios m_j ∈ {0, ..., M} (m_j = 0 rejects the request for
// this frame). The admissible assignments are bounded by the forward-link
// power region and the reverse-link interference region produced by the
// measurement sub-layer (package measurement), plus the per-request upper
// bound from the minimum-useful-burst-duration constraint (equation 24).
// Among the admissible assignments the scheduler maximises one of the two
// objective functions of Section 3.2:
//
//	J1(m) = Σ_j m_j·bp_j·(1+Δ_j)                            (equation 19)
//	J2(m) = Σ_j [ m_j·bp_j·(1+Δ_j) − f(w_j, m_j·bp_j) ]     (equation 20)
//
// where bp_j is the Rayleigh-averaged VTAOC throughput at the user's local
// mean CSI (the channel-adaptive part of the joint design), Δ_j a traffic
// priority, w_j the overall request delay including the MAC set-up penalty
// (equations 22-23), and f the delay penalty function (equation 21),
// increasing in w_j and decreasing linearly in the served rate m_j·bp_j so
// that the whole programme stays an integer linear programme.
package core

import (
	"errors"
	"fmt"

	"jabasd/internal/ilp"
	"jabasd/internal/mac"
	"jabasd/internal/measurement"
)

// Request is one pending burst request as seen by the scheduling sub-layer.
type Request struct {
	UserID int
	// SizeBits is Q_j, the remaining burst size in bits.
	SizeBits float64
	// WaitingTime is t_w, how long the request has been queued (seconds).
	WaitingTime float64
	// SetupDelay is D_s, the MAC set-up delay penalty applicable if the
	// burst is granted now (equation 23); OverallDelay = WaitingTime + SetupDelay.
	SetupDelay float64
	// Priority is Δ_j, the relative priority of the request's traffic type.
	Priority float64
	// AvgThroughput is bp_j, the Rayleigh-averaged VTAOC throughput at the
	// user's current local-mean CSI (bits per modulation symbol).
	AvgThroughput float64
	// MaxRatio is the per-request upper bound on m_j: min{M, Q_j/(T_l·bp_j)}
	// from equation (24), already clamped by the caller (RatePlan.MaxUsefulRatio).
	MaxRatio int
}

// OverallDelay returns w_j = t_w + D_s (equation 22).
func (r Request) OverallDelay() float64 { return r.WaitingTime + r.SetupDelay }

// ObjectiveKind selects between the two objective functions of Section 3.2.
type ObjectiveKind int

const (
	// ObjectiveThroughput is J1: maximise the total weighted served rate.
	ObjectiveThroughput ObjectiveKind = iota
	// ObjectiveDelayAware is J2: throughput minus the delay penalty, trading
	// some utilisation for serving long-waiting (possibly poor-channel) users.
	ObjectiveDelayAware
)

// String names the objective.
func (k ObjectiveKind) String() string {
	switch k {
	case ObjectiveThroughput:
		return "J1-throughput"
	case ObjectiveDelayAware:
		return "J2-delay-aware"
	default:
		return fmt.Sprintf("ObjectiveKind(%d)", int(k))
	}
}

// MarshalJSON encodes the kind as the paper's short name, "j1" or "j2", so
// configuration files and API payloads read as prose rather than enum
// ordinals.
func (k ObjectiveKind) MarshalJSON() ([]byte, error) {
	switch k {
	case ObjectiveThroughput:
		return []byte(`"j1"`), nil
	case ObjectiveDelayAware:
		return []byte(`"j2"`), nil
	default:
		return nil, fmt.Errorf("core: cannot encode unknown ObjectiveKind(%d)", int(k))
	}
}

// UnmarshalJSON accepts the short names ("j1"/"j2"), the descriptive names
// ("throughput"/"delay-aware") and, for configuration files written before
// the string encoding, the raw ordinals 0 and 1.
func (k *ObjectiveKind) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"j1"`, `"throughput"`, `"J1-throughput"`, `0`:
		*k = ObjectiveThroughput
	case `"j2"`, `"delay-aware"`, `"J2-delay-aware"`, `1`:
		*k = ObjectiveDelayAware
	default:
		return fmt.Errorf("core: unknown objective kind %s (want \"j1\" or \"j2\")", data)
	}
	return nil
}

// Objective parameterises the delay penalty f(w, r) of equation (21):
//
//	f(w, r) = Lambda * w * max(0, 1 - r/RateScale),
//
// which increases with the overall delay w, decreases linearly in the served
// rate r = m·bp (so the programme stays linear in m) and vanishes once the
// request is served at the reference rate RateScale.
type Objective struct {
	Kind ObjectiveKind
	// Lambda is λ, the delay penalty scale (utility units per second of delay).
	Lambda float64
	// RateScale is the reference served rate (in m·bp units) at which the
	// delay penalty is fully compensated; typically M * max throughput.
	RateScale float64
}

// DefaultObjective returns the J2 objective with λ = 0.05 and a rate scale of
// 16 (M=16 at top throughput 1.0).
func DefaultObjective() Objective {
	return Objective{Kind: ObjectiveDelayAware, Lambda: 0.05, RateScale: 16}
}

// Validate reports whether the objective parameters are usable.
func (o Objective) Validate() error {
	if o.Kind == ObjectiveDelayAware {
		if o.Lambda < 0 {
			return errors.New("core: Lambda must be non-negative")
		}
		if o.RateScale <= 0 {
			return errors.New("core: RateScale must be positive")
		}
	}
	return nil
}

// Penalty evaluates f(w, r) for a request with overall delay w served at
// rate r (in m·bp units). It is zero for the pure-throughput objective.
func (o Objective) Penalty(w, r float64) float64 {
	if o.Kind != ObjectiveDelayAware {
		return 0
	}
	frac := 1 - r/o.RateScale
	if frac < 0 {
		frac = 0
	}
	return o.Lambda * w * frac
}

// Value evaluates the chosen objective for the given assignment.
func (o Objective) Value(requests []Request, m []int) float64 {
	total := 0.0
	for j, req := range requests {
		mj := 0
		if j < len(m) {
			mj = m[j]
		}
		r := float64(mj) * req.AvgThroughput
		total += r * (1 + req.Priority)
		if o.Kind == ObjectiveDelayAware {
			total -= o.Penalty(req.OverallDelay(), r)
		}
	}
	return total
}

// utilityCoefficients returns the per-request linear utility coefficient
// c_j such that the objective equals Σ_j c_j·m_j + constant. For J2 the
// delay penalty contributes +Lambda·w_j·bp_j/RateScale per unit of m_j (the
// linear part) and a constant −Σ Lambda·w_j that does not affect the argmax.
func (o Objective) utilityCoefficients(requests []Request) []float64 {
	return o.utilityCoefficientsInto(nil, requests)
}

// utilityCoefficientsInto is utilityCoefficients writing into dst, which is
// grown as needed and returned; the schedulers reuse their scratch through
// it so the per-frame solve does not allocate.
func (o Objective) utilityCoefficientsInto(dst []float64, requests []Request) []float64 {
	if cap(dst) < len(requests) {
		dst = make([]float64, len(requests))
	}
	dst = dst[:len(requests)]
	for j, req := range requests {
		dst[j] = req.AvgThroughput * (1 + req.Priority)
		if o.Kind == ObjectiveDelayAware && o.RateScale > 0 {
			dst[j] += o.Lambda * req.OverallDelay() * req.AvgThroughput / o.RateScale
		}
	}
	return dst
}

// Problem is one frame's multiple-burst admission problem for a cell: the
// pending requests, the admissible regions from the measurement sub-layer
// (forward and/or reverse link — the paper handles the links independently,
// so usually exactly one of the two is non-empty), the global spreading
// ratio cap M and the objective.
type Problem struct {
	Requests  []Request
	Region    measurement.Region
	MaxRatio  int // M
	Objective Objective
	// MAC, when non-nil, recomputes each request's SetupDelay from its
	// waiting time before scheduling (equation 23); when nil the SetupDelay
	// provided on the request is used as-is.
	MAC *mac.Config
}

// Validate checks the problem for consistency.
func (p Problem) Validate() error {
	if p.MaxRatio < 1 {
		return errors.New("core: MaxRatio must be >= 1")
	}
	if err := p.Objective.Validate(); err != nil {
		return err
	}
	if p.MAC != nil {
		if err := p.MAC.Validate(); err != nil {
			return err
		}
	}
	for _, row := range p.Region.Coeff {
		if len(row) != len(p.Requests) {
			return errors.New("core: region width does not match request count")
		}
	}
	for _, r := range p.Requests {
		if r.AvgThroughput < 0 || r.SizeBits < 0 || r.MaxRatio < 0 {
			return errors.New("core: negative request fields")
		}
	}
	return nil
}

// effectiveRequests applies the MAC set-up delay recomputation when a MAC
// configuration is attached to the problem.
func (p Problem) effectiveRequests() []Request {
	if p.MAC == nil {
		return p.Requests
	}
	return p.effectiveRequestsInto(nil)
}

// effectiveRequestsInto is effectiveRequests writing the recomputed copy
// into buf (grown as needed). Like effectiveRequests it returns p.Requests
// itself when no MAC configuration is attached, so callers must not mutate
// the result.
func (p Problem) effectiveRequestsInto(buf []Request) []Request {
	if p.MAC == nil {
		return p.Requests
	}
	if cap(buf) < len(p.Requests) {
		buf = make([]Request, len(p.Requests))
	}
	buf = buf[:len(p.Requests)]
	copy(buf, p.Requests)
	for i := range buf {
		buf[i].SetupDelay = p.MAC.SetupDelay(buf[i].WaitingTime)
	}
	return buf
}

// upperBounds returns the per-request upper bound min{MaxRatio, request.MaxRatio}.
func (p Problem) upperBounds() []int {
	return p.upperBoundsInto(nil)
}

// upperBoundsInto is upperBounds writing into dst, grown as needed.
func (p Problem) upperBoundsInto(dst []int) []int {
	if cap(dst) < len(p.Requests) {
		dst = make([]int, len(p.Requests))
	}
	dst = dst[:len(p.Requests)]
	for j, r := range p.Requests {
		u := r.MaxRatio
		if u > p.MaxRatio {
			u = p.MaxRatio
		}
		if u < 0 {
			u = 0
		}
		dst[j] = u
	}
	return dst
}

// ilpScratch holds the buffers one scheduler instance reuses to assemble the
// frame's integer programme (and, for the greedy ascent, its working
// vectors) without allocating. Each scheduler owns its scratch; clones get a
// fresh one (see Cloner).
type ilpScratch struct {
	reqs []Request
	util []float64
	ub   []int
}

// toILP assembles the integer linear programme of Section 3.2 into the
// scratch buffers and returns it together with the effective (MAC-adjusted)
// requests. The returned problem's C and Upper alias the scratch; A and B
// alias the problem's region rows, which the solvers never mutate.
func (p Problem) toILP(sc *ilpScratch) (ilp.Problem, []Request) {
	reqs := p.Requests
	if p.MAC != nil {
		sc.reqs = p.effectiveRequestsInto(sc.reqs)
		reqs = sc.reqs
	}
	sc.util = p.Objective.utilityCoefficientsInto(sc.util, reqs)
	sc.ub = p.upperBoundsInto(sc.ub)
	return ilp.Problem{
		C:     sc.util,
		A:     p.Region.Coeff,
		B:     p.Region.Bound,
		Upper: sc.ub,
	}, reqs
}

// Assignment is the scheduler output: the spreading ratio granted to each
// request (0 = rejected this frame) and the achieved objective value.
type Assignment struct {
	Ratios    []int
	Objective float64
	Scheduler string
	// Fallback is true when an exact scheduler degraded to its greedy
	// heuristic because the solve exceeded its node budget (JABASD's
	// NodeBudget). The engine counts these as sim.Metrics.FallbackSolves
	// and traces them per cell-frame.
	Fallback bool
}

// Served reports how many requests received a non-zero grant.
func (a Assignment) Served() int {
	n := 0
	for _, m := range a.Ratios {
		if m > 0 {
			n++
		}
	}
	return n
}

// TotalRatio returns Σ m_j, a proxy for the amount of resource handed out.
func (a Assignment) TotalRatio() int {
	t := 0
	for _, m := range a.Ratios {
		t += m
	}
	return t
}
