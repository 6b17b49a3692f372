package movesched

// Queue is the FIFO active-vertex queue of the neighbourhood-search engines:
// a vertex is enqueued at most once at a time (pushing an already-queued
// vertex is a no-op), pops come back in insertion order, and the drained
// prefix is reclaimed so memory stays O(n) however long the search churns.
// It reproduces the queue core.LNS carried inline, pop-for-pop.
type Queue struct {
	q    []uint32
	inQ  []bool
	head int
	n    int
}

// NewQueue returns an empty queue over the id space [0, n).
func NewQueue(n int) *Queue {
	return &Queue{q: make([]uint32, 0, 2*n), inQ: make([]bool, n), n: n}
}

// Push enqueues u unless it is already waiting; it reports whether the
// vertex was added.
func (q *Queue) Push(u uint32) bool {
	if q.inQ[u] {
		return false
	}
	q.inQ[u] = true
	q.q = append(q.q, u)
	return true
}

// Pop removes and returns the oldest queued vertex; ok is false when the
// queue is empty.
func (q *Queue) Pop() (u uint32, ok bool) {
	if q.head >= len(q.q) {
		return 0, false
	}
	u = q.q[q.head]
	q.head++
	q.inQ[u] = false
	if q.head > q.n && q.head*2 > len(q.q) {
		// Reclaim the drained prefix so the backing array stays O(n).
		q.q = q.q[:copy(q.q, q.q[q.head:])]
		q.head = 0
	}
	return u, true
}

// Len returns the number of vertices currently queued.
func (q *Queue) Len() int { return len(q.q) - q.head }

// ActiveSet is the double-buffered pruning set of the synchronous engines
// (core.PLM, labelprop.Shared): a sweep reads the current generation and
// marks vertices for the next one — a vertex re-enters only when it or a
// neighbor moved. Marking is idempotent, so the engines can mark from
// per-thread mover lists in any order without changing the next sweep.
type ActiveSet struct {
	cur, next []bool
	nextCount int
}

// NewActiveSet returns a set over [0, n); when all is true every vertex
// starts active (the first sweep of a level).
func NewActiveSet(n int, all bool) *ActiveSet {
	a := &ActiveSet{cur: make([]bool, n), next: make([]bool, n)}
	if all {
		for i := range a.cur {
			a.cur[i] = true
		}
	}
	return a
}

// Active reports whether u participates in the current sweep.
func (a *ActiveSet) Active(u uint32) bool { return a.cur[u] }

// MarkNext schedules u for the next sweep.
func (a *ActiveSet) MarkNext(u uint32) {
	if !a.next[u] {
		a.next[u] = true
		a.nextCount++
	}
}

// Flip promotes the next generation to current (clearing the old one) and
// returns the new active count.
func (a *ActiveSet) Flip() int {
	a.cur, a.next = a.next, a.cur
	n := a.nextCount
	a.nextCount = 0
	for i := range a.next {
		a.next[i] = false
	}
	return n
}
