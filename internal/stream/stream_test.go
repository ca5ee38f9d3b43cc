package stream

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestOrderedEmitsInInputOrder(t *testing.T) {
	const n = 50
	results := make([]int, n)
	var emitted []int
	err := Ordered(n, 8,
		func(i int) error {
			// Finish in roughly reverse order to stress the reordering.
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			results[i] = i * i
			return nil
		},
		func(i int) error {
			emitted = append(emitted, i)
			if results[i] != i*i {
				t.Errorf("emit %d before its result was stored", i)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != n {
		t.Fatalf("emitted %d of %d", len(emitted), n)
	}
	for i, got := range emitted {
		if got != i {
			t.Fatalf("emit order broken at %d: got %d", i, got)
		}
	}
}

// TestOrderedStartsTasksInInputOrder: tasks take their slots in input
// order, so an early task cannot lose the race for a slot and run last,
// holding back every emit behind it. With one slot the start order is
// exactly the input order.
func TestOrderedStartsTasksInInputOrder(t *testing.T) {
	const n = 50
	var mu sync.Mutex
	var started []int
	err := Ordered(n, 1,
		func(i int) error {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			return nil
		},
		func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range started {
		if i != k {
			t.Fatalf("task %d started %dth: %v", i, k, started)
		}
	}
}

func TestOrderedBoundsParallelism(t *testing.T) {
	const n, bound = 40, 3
	var inFlight, peak atomic.Int64
	err := Ordered(n, bound,
		func(i int) error {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			return nil
		},
		func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > bound {
		t.Errorf("peak in-flight %d exceeds bound %d", got, bound)
	}
}

func TestOrderedFirstErrorInInputOrder(t *testing.T) {
	boom := errors.New("boom")
	var emitted []int
	err := Ordered(10, 4,
		func(i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("task %d: %w", i, boom)
			}
			return nil
		},
		func(i int) error {
			emitted = append(emitted, i)
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if err.Error() != "task 3: boom" {
		t.Errorf("want the first failure in input order, got %q", err)
	}
	// Everything before the failure must have been emitted, nothing after.
	want := []int{0, 1, 2}
	if len(emitted) != len(want) {
		t.Fatalf("emitted %v, want %v", emitted, want)
	}
	for i, got := range emitted {
		if got != want[i] {
			t.Fatalf("emitted %v, want %v", emitted, want)
		}
	}
}

func TestOrderedEmitErrorStops(t *testing.T) {
	stop := errors.New("stop")
	var emitted []int
	err := Ordered(20, 1,
		func(i int) error { return nil },
		func(i int) error {
			emitted = append(emitted, i)
			if i == 2 {
				return stop
			}
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
	if len(emitted) != 3 || emitted[2] != 2 {
		t.Errorf("emitted %v, want exactly [0 1 2]", emitted)
	}
}

func TestOrderedZeroTasks(t *testing.T) {
	if err := Ordered(0, 4, func(int) error { return nil }, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedDefaultParallel(t *testing.T) {
	var mu sync.Mutex
	var order []int
	err := Ordered(5, 0,
		func(i int) error { return nil },
		func(i int) error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("emitted %d of 5", len(order))
	}
}

func TestPoolRunsEveryTaskExactlyOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 1000
	var counts [n]int32
	p.Run(n, func(worker, task int) {
		if worker < 0 || worker >= p.Workers() {
			t.Errorf("worker index %d out of range [0,%d)", worker, p.Workers())
		}
		atomic.AddInt32(&counts[task], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

func TestPoolPerWorkerScratchNeedsNoLocking(t *testing.T) {
	// The point of worker identity: per-worker accumulators written without
	// synchronisation must still sum to the whole workload. Run under -race
	// this also proves no two tasks share a worker slot concurrently.
	p := NewPool(3)
	defer p.Close()
	scratch := make([]int, p.Workers())
	const n = 500
	p.Run(n, func(worker, task int) {
		scratch[worker]++
	})
	total := 0
	for _, s := range scratch {
		total += s
	}
	if total != n {
		t.Fatalf("per-worker scratch sums to %d, want %d", total, n)
	}
}

func TestPoolReusableAcrossRuns(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for round := 0; round < 50; round++ {
		var sum atomic.Int64
		p.Run(round%7, func(_, task int) { sum.Add(int64(task) + 1) })
		n := int64(round % 7)
		if got := sum.Load(); got != n*(n+1)/2 {
			t.Fatalf("round %d: sum %d, want %d", round, got, n*(n+1)/2)
		}
	}
}

func TestPoolZeroTasksAndDefaults(t *testing.T) {
	p := NewPool(0) // GOMAXPROCS
	defer p.Close()
	if p.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS (%d)", p.Workers(), runtime.GOMAXPROCS(0))
	}
	ran := false
	p.Run(0, func(_, _ int) { ran = true })
	p.Run(-3, func(_, _ int) { ran = true })
	if ran {
		t.Error("n <= 0 must run nothing")
	}
}

func TestPoolMoreWorkersThanTasks(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var sum atomic.Int64
	p.Run(2, func(_, task int) { sum.Add(int64(task) + 1) })
	if sum.Load() != 3 {
		t.Errorf("sum = %d, want 3", sum.Load())
	}
}

// TestPoolRunsEveryTaskExactlyOnceAcrossRuns stresses the hand-over from
// one Run to the next: a helper still polling, or waking late, after a Run
// must neither claim a task of the following Run twice nor lose one.
// Pools of 2 and GOMAXPROCS workers poll between Runs (when they fit in
// GOMAXPROCS); 8 workers on a smaller machine park at once.
func TestPoolRunsEveryTaskExactlyOnceAcrossRuns(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 35, 100}
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers-2", 2}, {"gomaxprocs", runtime.GOMAXPROCS(0)}, {"workers-8", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(tc.workers)
			defer p.Close()
			var counts [100]atomic.Int32
			var badWorker atomic.Int64
			badWorker.Store(-1)
			for round := range 10000 {
				n := sizes[round%len(sizes)]
				p.Run(n, func(w, task int) {
					if w < 0 || w >= p.Workers() {
						badWorker.Store(int64(w))
					}
					counts[task].Add(1)
				})
				for task := range counts {
					want := int32(0)
					if task < n {
						want = 1
					}
					if got := counts[task].Swap(0); got != want {
						t.Fatalf("round %d, Run(%d): task %d ran %d times", round, n, task, got)
					}
				}
				if w := badWorker.Load(); w >= 0 {
					t.Fatalf("round %d: worker index %d out of range [0,%d)", round, w, p.Workers())
				}
			}
		})
	}
}

// TestPoolOversubscribedDoesNotLivelock runs a 4-worker pool on one
// processor: its workers do not fit in GOMAXPROCS, so nobody polls, and a
// Run must still finish promptly whichever goroutine the scheduler runs.
func TestPoolOversubscribedDoesNotLivelock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := NewPool(4)
	defer p.Close()
	finished := make(chan int64)
	go func() {
		var sum atomic.Int64
		for round := range 1000 {
			p.Run(round%9, func(_, task int) { sum.Add(int64(task)) })
		}
		finished <- sum.Load()
	}()
	// Round r runs n = r%9 tasks summing to n(n-1)/2: 111 full cycles of
	// n = 0..8 (84 each), then round 999 with n = 0.
	const want = 111 * 84
	select {
	case got := <-finished:
		if got != want {
			t.Fatalf("task sum %d, want %d", got, want)
		}
	case <-time.After(time.Minute):
		t.Fatal("1000 Runs on one processor did not finish within a minute")
	}
}

// TestPoolCloseLeavesNoHelpers closes a pool in each state its helpers can
// be in (parked since start, parked after polling out, polling right after
// a Run) and requires every helper goroutine to be gone.
func TestPoolCloseLeavesNoHelpers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		prepare func(p *Pool)
	}{
		{"never-run", func(*Pool) {}},
		{"parked", func(p *Pool) {
			p.Run(64, func(_, _ int) {})
			for i := range p.helpers {
				for !p.helpers[i].parked.Load() {
					time.Sleep(spinWindow)
				}
			}
		}},
		{"just-run", func(p *Pool) { p.Run(64, func(_, _ int) {}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			// GOMAXPROCS workers fit, so a just-run pool's helpers poll.
			p := NewPool(max(2, runtime.GOMAXPROCS(0)))
			tc.prepare(p)
			p.Close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the pool", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestPoolRunsSingleTaskInline pins that a one-task Run does not wake the
// pool: the task runs on the calling goroutine, as worker 0.
func TestPoolRunsSingleTaskInline(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	caller := goroutineID()
	var got []int
	p.Run(1, func(w, task int) { got = append(got, goroutineID(), w, task) })
	if len(got) != 3 || got[0] != caller || got[1] != 0 || got[2] != 0 {
		t.Errorf("Run(1) called fn as (goroutine, worker, task) = %v, want [%d 0 0]", got, caller)
	}
}

// TestNilPoolRunsInline pins the inline pool: a nil *Pool runs every task
// exactly once, in task order, on the calling goroutine as worker 0, reports
// one worker, and closes without panicking.
func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if w := p.Workers(); w != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", w)
	}
	caller := goroutineID()
	for _, n := range []int{0, 1, 5} {
		var tasks []int
		p.Run(n, func(w, task int) {
			if g := goroutineID(); g != caller || w != 0 {
				t.Errorf("Run(%d) task %d ran on goroutine %d as worker %d, want %d as worker 0", n, task, g, w, caller)
			}
			tasks = append(tasks, task)
		})
		if len(tasks) != n {
			t.Fatalf("Run(%d) ran %d tasks (%v)", n, len(tasks), tasks)
		}
		for i, task := range tasks {
			if task != i {
				t.Fatalf("Run(%d) ran tasks %v, want 0..%d in order", n, tasks, n-1)
			}
		}
	}
	p.Close()
}

// goroutineID parses the running goroutine's id from its stack header
// ("goroutine N [running]:").
func goroutineID() int {
	var buf [64]byte
	var id int
	fmt.Sscanf(string(buf[:runtime.Stack(buf[:], false)]), "goroutine %d", &id)
	return id
}
