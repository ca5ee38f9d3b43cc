package traffic

import "sort"

// Queue holds the burst requests waiting for admission in one cell, ordered
// by arrival time (FIFO). The scheduling sub-layer reads the whole queue
// each frame; FCFS baselines serve it strictly in order.
type Queue struct {
	items []*BurstRequest
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{} }

// Push appends a request, keeping arrival-time order.
func (q *Queue) Push(r *BurstRequest) {
	q.items = append(q.items, r)
	// Requests arrive in time order in the simulator, but keep the invariant
	// robust for out-of-order insertion in tests.
	if n := len(q.items); n > 1 && q.items[n-1].ArrivalTime < q.items[n-2].ArrivalTime {
		sort.SliceStable(q.items, func(i, j int) bool {
			return q.items[i].ArrivalTime < q.items[j].ArrivalTime
		})
	}
}

// Len returns the number of waiting requests.
func (q *Queue) Len() int { return len(q.items) }

// Items returns the waiting requests in arrival order. The returned slice is
// the queue's backing store and must not be modified; use Remove to take
// requests out.
func (q *Queue) Items() []*BurstRequest { return q.items }

// Remove deletes the given request (by pointer identity) from the queue and
// reports whether it was present.
func (q *Queue) Remove(r *BurstRequest) bool {
	for i, it := range q.items {
		if it == r {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}
