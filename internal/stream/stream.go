// Package stream provides the bounded-parallel execution primitives of the
// simulator (internal/sim): Ordered, the one-shot order-preserving task
// runner under its replication runner sim.Replicate, which parameter
// sweeps and the dynamic experiments all go through, and Pool, the
// reusable worker pool of its frame fan-out, whose caller is worker 0 and
// whose helpers poll briefly between passes before they park.
// Ordered emits results strictly in input order as soon as each task and
// all of its predecessors have finished, so a caller that prints or
// persists results incrementally keeps everything completed before a
// failure.
package stream

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Ordered runs n tasks concurrently with at most parallel of them in flight
// at once (<= 0 means GOMAXPROCS) and calls emit(i) in input order as soon
// as task i and every task before it have finished.
//
// run(i) computes the i-th result and stores it somewhere the caller owns
// (typically a slice indexed by i); emit(i) consumes it. The first error in
// input order — from run or emit — is returned after the in-flight tasks
// drain; queued tasks that have not started yet are skipped, and emit is
// called for every task preceding the failure but none after it.
func Ordered(n, parallel int, run func(i int) error, emit func(i int) error) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, parallel)
	stop := make(chan struct{}) // closed on failure: queued tasks skip running
	// One dispatcher takes the slots in input order, so task i starts no
	// later than any task after it: otherwise a task that loses the race
	// for a slot could run last and hold back every emit.
	go func() {
		for i := 0; i < n; i++ {
			sem <- struct{}{}
			go func(i int) {
				defer close(done[i])
				defer func() { <-sem }()
				select {
				case <-stop:
					return // a predecessor already failed; this result would be discarded
				default:
				}
				errs[i] = run(i)
			}(i)
		}
	}()
	// drainFrom is called at most once, right before returning an error: it
	// tells queued tasks not to start and waits out the in-flight ones.
	drainFrom := func(j int) {
		close(stop)
		for ; j < n; j++ {
			<-done[j]
		}
	}
	for i := 0; i < n; i++ {
		<-done[i]
		if errs[i] != nil {
			drainFrom(i + 1)
			return errs[i]
		}
		if err := emit(i); err != nil {
			drainFrom(i + 1)
			return err
		}
	}
	return nil
}

// Pool is a fixed set of workers for repeated bounded fan-outs. Unlike
// Ordered, which spawns one goroutine per task and has no notion of worker
// identity, a Pool keeps its goroutines alive across Run calls and passes
// each task the index of the worker executing it, so callers can maintain
// per-worker scratch state (buffers, solver instances) that is reused
// without synchronisation. The simulation engine runs one Pool per
// replication to fan every frame's user updates, burst rates and per-cell
// admission solves out without re-spawning goroutines.
//
// The caller of Run is worker 0: NewPool(w) starts w-1 helper goroutines,
// and a Run claims tasks on the calling goroutine alongside them. Tasks
// within one Run are claimed dynamically (work stealing), so the
// task→worker assignment is NOT deterministic; callers needing reproducible
// output must make each task's result independent of which worker ran it.
// Run returns once every task has finished, whether or not every helper
// woke up for it: a Run waits for its tasks, not its helpers.
//
// Between Runs a helper polls for the next one for spinWindow, then parks
// until a Run wakes it. Polling spans the short sequential sections between
// a frame's passes without a sleep and a wake-up per pass; it is done only
// while the pool's workers fit in GOMAXPROCS, so an oversubscribed pool
// parks at once and never holds a processor another worker needs. Helpers
// start parked.
//
// A Pool is not safe for concurrent Run calls. Close releases the helpers;
// the Pool is unusable afterwards.
//
// A nil *Pool is the inline pool: Run executes every task in order on the
// caller as worker 0, Workers is 1 and Close does nothing. Callers hold one
// fan-out path and pass nil where they want no goroutines.
type Pool struct {
	// claim packs the current Run's epoch (high 32 bits) with the number of
	// its tasks not yet claimed (low 32 bits). A worker claims task n-r by
	// moving the word from (epoch, r) to (epoch, r-1) with one
	// compare-and-swap, so a helper still holding a word read during an
	// earlier Run cannot claim a task of a later one.
	claim atomic.Uint64
	done  atomic.Int64 // tasks of the current Run finished

	// n and fn describe the current Run. The caller sets them before it
	// publishes the Run's claim word and a worker reads them only after a
	// successful claim, which the Run cannot outlive.
	n     int
	fn    func(worker, task int)
	epoch uint64

	helpers []helper
	closed  atomic.Bool
	exited  sync.WaitGroup

	// waiting is set while the caller is parked on finished for the last
	// tasks of its Run; the worker finishing the last task clears it and
	// sends one token.
	waiting  atomic.Bool
	finished chan struct{}
}

// helper is one helper goroutine's parking state. Whoever clears parked
// (a Run or Close waking it, or the helper itself finding work before it
// sleeps) owns the wake-up, so wake never holds more than one token.
type helper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// taskMask selects the unclaimed-task count of a claim word.
const taskMask = 1<<32 - 1

// spinWindow bounds how long a worker polls before it parks. The
// sequential sections between the passes of a metro frame (37 cells,
// 2 vCPUs, go1.24) measured 14 us at the median, 51 us at the p90 and
// 73 us at the p99, so a helper spanning one section is still polling when
// the next pass starts; a longer gap (a city frame's serial residue, the
// end of a run) costs at most this much polling before the helper parks.
const spinWindow = 100 * time.Microsecond

// NewPool starts a pool of the given number of workers (<= 0 means
// GOMAXPROCS): the caller of Run and workers-1 parked helpers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		helpers:  make([]helper, workers-1),
		finished: make(chan struct{}, 1),
	}
	p.exited.Add(len(p.helpers))
	for i := range p.helpers {
		h := &p.helpers[i]
		h.parked.Store(true)
		h.wake = make(chan struct{}, 1)
		go p.help(i+1, h)
	}
	return p
}

// Workers returns the number of workers in the pool: 1 for the inline pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return len(p.helpers) + 1
}

// Run executes fn(worker, task) for every task in [0, n), fanning the tasks
// out over the pool's workers, and returns once all have finished. The
// worker argument identifies which worker's scratch state the task may use;
// the caller runs tasks as worker 0. A single task runs inline on the
// caller: waking a helper would cost more than the task. The inline (nil)
// pool runs every task that way, in task order.
func (p *Pool) Run(n int, fn func(worker, task int)) {
	if p == nil || n <= 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	if n > taskMask {
		panic("stream: Pool.Run of more than 2^32-1 tasks")
	}
	p.n, p.fn = n, fn
	p.done.Store(0)
	p.epoch++
	p.claim.Store(p.epoch<<32 | uint64(n))
	p.wakeHelpers(n - 1)
	p.work(0)
	p.awaitTasks(int64(n))
	p.fn = nil
}

// wakeHelpers makes sure up to k helpers take part in the Run just
// published: a helper that is not parked polls for it already, and parked
// ones are woken until k are awake. The caller runs the remaining task.
func (p *Pool) wakeHelpers(k int) {
	for i := range p.helpers {
		if k == 0 {
			return
		}
		if h := &p.helpers[i]; h.parked.Load() && h.parked.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
		}
		k--
	}
}

// work claims and runs the current Run's tasks as worker w until none is
// left unclaimed.
func (p *Pool) work(w int) {
	for {
		v := p.claim.Load()
		r := v & taskMask
		if r == 0 {
			return
		}
		if !p.claim.CompareAndSwap(v, v-1) {
			continue
		}
		n := p.n
		p.fn(w, n-int(r))
		if p.done.Add(1) == int64(n) && p.waiting.CompareAndSwap(true, false) {
			p.finished <- struct{}{}
		}
	}
}

// awaitTasks returns once n tasks of the current Run have finished: the
// caller has claimed none of them left, and helpers may still be running
// their last ones. It polls like a helper, then parks on finished. Setting
// waiting before the last look at done means the worker finishing the last
// task either sees the flag, and sends the one token, or is seen by that
// look.
func (p *Pool) awaitTasks(n int64) {
	if p.poll(func() bool { return p.done.Load() == n }) {
		return
	}
	p.waiting.Store(true)
	if p.done.Load() == n && p.waiting.CompareAndSwap(true, false) {
		return
	}
	<-p.finished
}

// help is helper goroutine w's loop: wait for the Run it is woken for, run
// it, then poll for the next one before parking again. NewPool marked the
// helper parked, so whoever clears that flag first owns the first wake-up;
// the helper only receives it.
func (p *Pool) help(w int, h *helper) {
	defer p.exited.Done()
	<-h.wake
	for !p.closed.Load() {
		p.work(w)
		if !p.poll(p.pending) {
			p.park(h)
		}
	}
}

// pending reports whether a Run has tasks left to claim or the pool is
// closing: what a polling or parking helper waits for.
func (p *Pool) pending() bool {
	return p.claim.Load()&taskMask != 0 || p.closed.Load()
}

// park blocks helper h until a Run or Close wakes it. Setting parked before
// the last look at pending means a Run publishing its claim word either
// sees the flag and wakes h or is seen by that look.
func (p *Pool) park(h *helper) {
	h.parked.Store(true)
	if p.pending() && h.parked.CompareAndSwap(true, false) {
		return
	}
	<-h.wake
}

// poll reports whether ready turns true within spinWindow, checking it in
// a busy loop. A pool with more workers than GOMAXPROCS checks once: a
// polling worker there would hold the processor a working one needs.
func (p *Pool) poll(ready func() bool) bool {
	if p.Workers() > runtime.GOMAXPROCS(0) {
		return ready()
	}
	start := time.Now()
	for i := 1; ; i++ {
		if ready() {
			return true
		}
		if i%64 == 0 && time.Since(start) > spinWindow {
			return false
		}
	}
}

// Close stops the pool's helpers and waits for them to exit. It must not be
// called while a Run is in flight, and the Pool must not be used
// afterwards. Closing the inline pool does nothing.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closed.Store(true)
	for i := range p.helpers {
		if h := &p.helpers[i]; h.parked.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
		}
	}
	p.exited.Wait()
}
