package service

import (
	"container/heap"
	"sync"
)

// jobQueue is the bounded admission queue's ordering core: a priority
// heap (higher Priority first, FIFO within a priority) with blocking
// pop. Capacity is enforced by the server at submit time — the queue
// itself only orders and hands out work. close wakes every waiting
// worker and makes pop return nil immediately, *without* running the
// still-queued jobs: during a drain they stay queued (and persisted)
// for re-admission on restart.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  jobHeap
	closed bool
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job, wakes one worker, and returns the queue depth
// the push produced. A depth read after push returns may already miss
// the job a woken worker popped, so high-water marks use this one.
func (q *jobQueue) push(j *Job) int {
	q.mu.Lock()
	heap.Push(&q.items, j)
	n := len(q.items)
	q.mu.Unlock()
	q.cond.Signal()
	return n
}

// pop blocks until a job is available or the queue is closed. It
// returns nil on close even if jobs remain queued (drain semantics).
func (q *jobQueue) pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && len(q.items) == 0 {
		q.cond.Wait()
	}
	if q.closed {
		return nil
	}
	return heap.Pop(&q.items).(*Job)
}

// len returns the number of queued (not yet popped) jobs.
func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close stops the queue: every blocked and future pop returns nil.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// snapshot returns the queued jobs in pop order (for drain reporting).
func (q *jobQueue) snapshot() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, len(q.items))
	copy(out, q.items)
	return out
}

// jobHeap orders by priority (desc), then admission sequence (asc).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].spec.Priority != h[j].spec.Priority {
		return h[i].spec.Priority > h[j].spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
