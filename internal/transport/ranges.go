package transport

// rangeSet tracks which byte ranges of the connection's stream have arrived
// at the receiver: a sorted list of disjoint [start, end) intervals plus a
// contiguous prefix pointer. It implements the receiver-side reassembly
// state used for in-order delivery and receive-window accounting (§7.2.7).
type rangeSet struct {
	next      int64      // everything below next is contiguous ("rcv.nxt")
	intervals []interval // out-of-order islands above next, sorted, disjoint
	retired   int64      // bytes the islands held when handBack retired them
}

type interval struct{ start, end int64 }

// add records the arrival of [off, off+size) and returns how far the
// contiguous prefix advanced.
func (r *rangeSet) add(off int64, size int) int64 {
	if size <= 0 {
		return 0
	}
	end := off + int64(size)
	if end <= r.next {
		return 0 // wholly duplicate
	}
	if off < r.next {
		off = r.next
	}
	// In-order fast path: the common no-loss case extends the prefix
	// directly, without touching the island list.
	if off == r.next && (len(r.intervals) == 0 || r.intervals[0].start > end) {
		r.next = end
		return end - off
	}
	// Insert/merge into the island list.
	r.insert(interval{off, end})
	// Advance the contiguous prefix over any islands it now reaches.
	before := r.next
	k := 0
	for k < len(r.intervals) && r.intervals[k].start <= r.next {
		if r.intervals[k].end > r.next {
			r.next = r.intervals[k].end
		}
		k++
	}
	if k > 0 {
		n := copy(r.intervals, r.intervals[k:])
		r.intervals = r.intervals[:n]
	}
	return r.next - before
}

func (r *rangeSet) insert(iv interval) {
	// Find the first island with start > iv.start.
	lo, hi := 0, len(r.intervals)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.intervals[mid].start <= iv.start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Merge left neighbour if overlapping/adjacent.
	i := lo
	if i > 0 && r.intervals[i-1].end >= iv.start {
		i--
		if r.intervals[i].end >= iv.end {
			return // fully contained
		}
		iv.start = r.intervals[i].start
	}
	// Merge right neighbours.
	j := i
	for j < len(r.intervals) && r.intervals[j].start <= iv.end {
		if r.intervals[j].end > iv.end {
			iv.end = r.intervals[j].end
		}
		j++
	}
	if j == i {
		// Pure insertion: shift the tail right by one in place.
		r.intervals = append(r.intervals, interval{})
		copy(r.intervals[i+1:], r.intervals[i:])
		r.intervals[i] = iv
		return
	}
	// Replace the merged run [i, j) with the single merged interval.
	r.intervals[i] = iv
	if j > i+1 {
		n := copy(r.intervals[i+1:], r.intervals[j:])
		r.intervals = r.intervals[:i+1+n]
	}
}

// contiguous returns the end of the in-order prefix (rcv.nxt).
func (r *rangeSet) contiguous() int64 { return r.next }

// buffered returns the number of out-of-order bytes held above the prefix.
func (r *rangeSet) buffered() int64 {
	t := r.retired
	for _, iv := range r.intervals {
		t += iv.end - iv.start
	}
	return t
}

// handBack retires the set once nothing more can arrive (its connection
// closed): the island storage returns to free, and buffered keeps reporting
// the bytes it held.
func (r *rangeSet) handBack(free *arrays[interval]) {
	r.retired = r.buffered()
	free.put(r.intervals)
	r.intervals = nil
}

// contains reports whether the byte at off has arrived.
func (r *rangeSet) contains(off int64) bool {
	if off < r.next {
		return true
	}
	for _, iv := range r.intervals {
		if off >= iv.start && off < iv.end {
			return true
		}
		if iv.start > off {
			break
		}
	}
	return false
}
