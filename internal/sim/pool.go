package sim

// Pool is a slab-backed free list of *T: the one implementation behind every
// pooled object type of the layers above (netem packets; transport records,
// segments, monitor intervals and connections). Pools hang off
// one engine (see Engine.Local), and an engine is single-threaded, so a
// plain slice needs no locking — unlike a sync.Pool, which would cost an
// atomic per get/put and leak objects across concurrently running engines.
// A cold start provisions Slab objects per allocation; a warm pool allocates
// nothing. The caller resets an object before Put (zeroes it, or keeps only
// an emptied buffer) — or, if whoever released it may still read it, right
// after Get — so which owner used it last cannot reach the next one.
type Pool[T any] struct {
	Slab int // objects provisioned per allocation

	free []*T
	made int
}

// Get returns a fresh or recycled object.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return t
	}
	return p.grow()
}

// grow is kept out of line so that Get, called per packet, inlines.
//
//go:noinline
func (p *Pool[T]) grow() *T {
	slab := make([]T, p.Slab)
	p.made += len(slab)
	for i := 1; i < len(slab); i++ {
		p.free = append(p.free, &slab[i])
	}
	return &slab[0]
}

// Put takes back an object the caller has reset.
func (p *Pool[T]) Put(t *T) { p.free = append(p.free, t) }

// InUse returns how many objects are out of the pool.
func (p *Pool[T]) InUse() int { return p.made - len(p.free) }

// Made returns how many objects the pool has ever provisioned — its
// footprint, which tracks peak concurrent use, not throughput.
func (p *Pool[T]) Made() int { return p.made }
