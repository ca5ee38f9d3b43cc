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
