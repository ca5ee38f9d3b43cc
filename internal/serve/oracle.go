package serve

import (
	"bytes"
	"fmt"
	"sync"
	"unsafe"

	"jabasd/internal/core"
	"jabasd/internal/mac"
	"jabasd/internal/measurement"
	"jabasd/internal/sim"
)

// OracleRequest is the body of POST /v1/oracle: one cell's measured frame
// state, exactly the scheduling sub-layer's input (a core.Problem in JSON
// form) plus the scheduler selection. This is the paper's per-frame ILP as
// a service — a base station controller can submit its live measurements
// and receive the grants JABA-SD would issue, with no simulation involved.
type OracleRequest struct {
	// Scheduler is a sim scheduler kind ("jaba-sd", "jaba-sd-greedy",
	// "fcfs", "equal-share", "random"); empty means jaba-sd.
	Scheduler string `json:"scheduler,omitempty"`
	// Seed seeds the "random" scheduler; ignored by the others.
	Seed uint64 `json:"seed,omitempty"`
	// Requests are the cell's pending burst requests (core.Request fields).
	Requests []core.Request `json:"requests"`
	// Region is the admissible region Coeff·m <= Bound from the measurement
	// sub-layer.
	Region measurement.Region `json:"region"`
	// MaxRatio is M, the global spreading-gain ratio cap.
	MaxRatio int `json:"max_ratio"`
	// Objective selects and parameterises J1/J2.
	Objective core.Objective `json:"objective"`
	// MAC, when present, recomputes each request's SetupDelay from its
	// waiting time (equation 23) before scheduling.
	MAC *mac.Config `json:"mac,omitempty"`
}

// OracleResponse is the scheduler's assignment for the submitted frame.
type OracleResponse struct {
	// Ratios is m_j per request, 0 = rejected this frame.
	Ratios []int `json:"ratios"`
	// Objective is the achieved objective value.
	Objective float64 `json:"objective"`
	// Scheduler names the algorithm that produced the grants.
	Scheduler string `json:"scheduler"`
	// Served counts non-zero grants; TotalRatio is Σ m_j.
	Served     int `json:"served"`
	TotalRatio int `json:"total_ratio"`
}

// oraclePool holds resident warm JABA-SD instances, one per concurrent
// oracle call. Each instance owns a warm ilp.Solver and scratch buffers
// (steady-state Schedule is a single allocation), so serving a frame costs
// a solve, not a solver construction — the reason the oracle lives in a
// long-running server at all. Instances are produced from one prototype via
// core.Cloner, the same per-worker cloning contract the snapshot frame mode
// uses.
type oraclePool struct {
	warm chan *core.JABASD
}

func newOraclePool(size int) *oraclePool {
	p := &oraclePool{warm: make(chan *core.JABASD, size)}
	proto := core.NewJABASD()
	for i := 0; i < size; i++ {
		p.warm <- proto.Clone().(*core.JABASD)
	}
	return p
}

// schedule answers one oracle request. JABA-SD requests borrow a warm
// instance from the pool (blocking until one is free, which bounds
// concurrent solves); the baseline schedulers are stateless and built per
// request.
func (p *oraclePool) schedule(req OracleRequest) (core.Assignment, error) {
	problem := core.Problem{
		Requests:  req.Requests,
		Region:    req.Region,
		MaxRatio:  req.MaxRatio,
		Objective: req.Objective,
		MAC:       req.MAC,
	}
	if err := problem.Validate(); err != nil {
		return core.Assignment{}, err
	}

	kind := sim.SchedulerKind(req.Scheduler)
	if kind == "" || kind == sim.SchedulerJABASD {
		s := <-p.warm
		defer func() { p.warm <- s }()
		return s.Schedule(problem)
	}
	s, err := sim.NewScheduler(kind, req.Seed)
	if err != nil {
		return core.Assignment{}, fmt.Errorf("serve: %w", err)
	}
	return s.Schedule(problem)
}

// maxOracleBody is the longest body the oracle reads; a longer one is
// refused with 413 before anything is decoded.
const maxOracleBody = 1 << 20

// maxPooledScratch is the most memory, in bytes, an oracle scratch may
// hold and still go back to the pool: its body and response buffers and
// the storage of its decoded slices. decode clears those slices to their
// full capacity on every call, so one large problem, even a refused one,
// would otherwise pin its memory and slow every later call that draws the
// scratch. A benchmark-style call holds a few KiB.
const maxPooledScratch = 64 << 10

// oracleScratch is one oracle call's reusable memory: the body, the decoded
// request, the storage of its slices and MAC, and the encoded response.
type oracleScratch struct {
	body bytes.Buffer
	req  OracleRequest
	out  []byte

	requests []core.Request
	coeff    [][]float64
	bound    []float64
	cells    []int
	mac      mac.Config
	dec      oracleDecoder
}

var oracleScratchPool sync.Pool

func getOracleScratch() *oracleScratch {
	if sc, ok := oracleScratchPool.Get().(*oracleScratch); ok {
		return sc
	}
	return new(oracleScratch)
}

func putOracleScratch(sc *oracleScratch) {
	if sc.size() > maxPooledScratch {
		return
	}
	sc.body.Reset()
	oracleScratchPool.Put(sc)
}

// size is the memory, in bytes, the scratch holds in its buffers and in
// the storage of its decoded slices.
func (sc *oracleScratch) size() int {
	n := sc.body.Cap() + cap(sc.out) + cap(sc.dec.buf) +
		bytesOf(sc.requests) + bytesOf(sc.coeff) + bytesOf(sc.bound) + bytesOf(sc.cells)
	for _, row := range sc.coeff[:cap(sc.coeff)] {
		n += bytesOf(row)
	}
	return n
}

// bytesOf is the size of a slice's backing array.
func bytesOf[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// decode decodes the body into sc.req as encoding/json decodes it into a
// zero OracleRequest, but in the memory of the last call. The decoder
// extends a slice over its old contents, as encoding/json does, so those
// are zeroed first: a zeroed element is what a slice grown from nil holds.
func (sc *oracleScratch) decode() error {
	clear(sc.requests[:cap(sc.requests)])
	for _, row := range sc.coeff[:cap(sc.coeff)] {
		clear(row[:cap(row)])
	}
	clear(sc.bound[:cap(sc.bound)])
	clear(sc.cells[:cap(sc.cells)])
	req := &sc.req
	*req = OracleRequest{
		Requests: sc.requests[:0],
		Region:   measurement.Region{Coeff: sc.coeff[:0], Bound: sc.bound[:0], Cells: sc.cells[:0]},
	}
	d := &sc.dec
	*d = oracleDecoder{data: sc.body.Bytes(), spare: &sc.mac, buf: d.buf[:0]}
	err := d.decode(req)
	sc.requests = roomier(sc.requests, req.Requests)
	sc.coeff = roomier(sc.coeff, req.Region.Coeff)
	sc.bound = roomier(sc.bound, req.Region.Bound)
	sc.cells = roomier(sc.cells, req.Region.Cells)
	// A slice whose key the body lacks is nil, as in a zero request.
	if d.seen&seenRequests == 0 {
		req.Requests = nil
	}
	if d.seen&seenCoeff == 0 {
		req.Region.Coeff = nil
	}
	if d.seen&seenBound == 0 {
		req.Region.Bound = nil
	}
	if d.seen&seenCells == 0 {
		req.Region.Cells = nil
	}
	return err
}

// roomier returns whichever of the two slices has the larger capacity.
func roomier[T any](kept, decoded []T) []T {
	if cap(decoded) > cap(kept) {
		return decoded
	}
	return kept
}
