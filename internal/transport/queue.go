package transport

// segQueue is a FIFO of segment references with O(1) amortized pop that
// preserves slice capacity: instead of re-slicing (s = s[1:]), which strands
// the popped prefix and forces every later append to reallocate, it advances
// a head index and compacts in place once the dead prefix dominates. Each
// queue slot owns one segment reference (see the ownership rules in pool.go):
// push takes over a reference, pop hands it to the caller. The storage
// comes from and returns to the engine arena, so a new connection's queues
// start on a closed one's backing arrays.
type segQueue struct {
	s     []*segment
	head  int
	arena *arena
}

func (q *segQueue) len() int { return len(q.s) - q.head }

func (q *segQueue) push(seg *segment) {
	if cap(q.s) == 0 {
		q.s = popSlice(&q.arena.segSlices)
	}
	q.s = append(q.s, seg)
}

// peek returns the head segment without transferring ownership.
func (q *segQueue) peek() *segment { return q.s[q.head] }

// pop removes and returns the head segment, transferring its reference to
// the caller. The queue must be non-empty.
func (q *segQueue) pop() *segment {
	seg := q.s[q.head]
	q.s[q.head] = nil
	q.head++
	if q.head > 64 && q.head*2 > len(q.s) {
		n := copy(q.s, q.s[q.head:])
		tail := q.s[n:]
		for i := range tail {
			tail[i] = nil
		}
		q.s = q.s[:n]
		q.head = 0
	}
	return seg
}

// items returns the live entries in order. The caller must not pop or push
// while holding the view.
func (q *segQueue) items() []*segment { return q.s[q.head:] }

// reset empties the queue without releasing references — the caller has
// already transferred or released every live entry (see migrateFrom).
func (q *segQueue) reset() {
	for i := q.head; i < len(q.s); i++ {
		q.s[i] = nil
	}
	q.s = q.s[:0]
	q.head = 0
}

// handBack returns an emptied queue's storage to the arena (teardown).
func (q *segQueue) handBack() {
	q.reset()
	pushSlice(&q.arena.segSlices, q.s)
	q.s = nil
}
