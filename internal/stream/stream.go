// Package stream provides the bounded-parallel execution primitives shared
// by the experiment suite (internal/experiments), the replication fan-out
// and snapshot frame admission (internal/sim) and the parameter-sweep
// harness (internal/sweep): Ordered, a one-shot order-preserving task
// runner, and Pool, a reusable worker pool for repeated small fan-outs.
// Ordered emits results strictly in input order as soon as each task and
// all of its predecessors have finished, so a caller that prints or
// persists results incrementally keeps everything completed before a
// failure.
package stream

import (
	"runtime"
	"sync"
	"sync/atomic"
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

// Pool is a fixed set of persistent workers for repeated bounded fan-outs.
// Unlike Ordered, which spawns one goroutine per task and has no notion of
// worker identity, a Pool keeps its goroutines alive across Run calls and
// passes each task the index of the worker executing it, so callers can
// maintain per-worker scratch state (buffers, solver instances) that is
// reused without synchronisation. The simulation engine runs one Pool per
// replication to fan the per-cell admission solves of every frame out
// without re-spawning goroutines 50 times a simulated second.
//
// Tasks within one Run are claimed dynamically (work stealing), so the
// task→worker assignment is NOT deterministic; callers needing reproducible
// output must make each task's result independent of which worker ran it.
// Run blocks until every task finished. A Pool is not safe for concurrent
// Run calls. Close releases the workers; the Pool is unusable afterwards.
type Pool struct {
	wake []chan *poolBatch
	cur  poolBatch // reused across Run calls so the steady state does not allocate
}

// poolBatch is one Run's shared work descriptor.
type poolBatch struct {
	n    int64
	next atomic.Int64
	fn   func(worker, task int)
	wg   sync.WaitGroup
}

// NewPool starts a pool of the given number of workers (<= 0 means
// GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{wake: make([]chan *poolBatch, workers)}
	for w := range p.wake {
		ch := make(chan *poolBatch)
		p.wake[w] = ch
		go func(w int) {
			for b := range ch {
				for {
					i := b.next.Add(1) - 1
					if i >= b.n {
						break
					}
					b.fn(w, int(i))
				}
				b.wg.Done()
			}
		}(w)
	}
	return p
}

// Workers returns the number of workers in the pool.
func (p *Pool) Workers() int { return len(p.wake) }

// Run executes fn(worker, task) for every task in [0, n), fanning the tasks
// out over the pool's workers, and returns once all have finished. The
// worker argument identifies which worker's scratch state the task may use.
func (p *Pool) Run(n int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	b := &p.cur
	b.n = int64(n)
	b.fn = fn
	b.next.Store(0)
	b.wg.Add(len(p.wake))
	for _, ch := range p.wake {
		ch <- b
	}
	b.wg.Wait()
	b.fn = nil
}

// Close stops the pool's workers. It must not be called while a Run is in
// flight, and the Pool must not be used afterwards.
func (p *Pool) Close() {
	for _, ch := range p.wake {
		close(ch)
	}
}
