// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, a cancellable timer queue, and a seeded random source.
//
// A simulation runs on one Engine (or one per disconnected component of its
// topology, see exp.Spec.Shards). The engine is intentionally
// single-threaded: events execute one at a time in (time, insertion-order)
// order, which makes every run bit-reproducible for a given seed. Distinct
// engines share no state, so they may run concurrently: a sweep runs
// exp.Config.Workers simulations at once, each on its own engines.
//
// The event core is allocation-conscious and built for timer churn. The
// queue has two tiers, split by a timer's 65.5 µs slot relative to the
// frontier (the slot being fired): an imminent 4-ary heap for slots at or
// before it, and a single-level hashed timing wheel of 8 192 buckets for
// every later slot (O(1) insert and cancel). A timer more than one ≈537 ms
// span out — a watchdog, a churn timer, a backed-off RTO — shares its
// bucket with nearer laps and stays there until its lap comes round
// (Varghese and Lauck's hashed wheel, scheme 6): a drain moves only the
// timers of the slot being reached into the heap, so the heap every pop
// sifts holds a slot's worth however many timers wait far out. Each pop
// takes the heap's head, the global (at, seq) minimum — the exact total
// order one heap alone would produce (property-tested against a reference
// heap in wheel_test.go). Every timer recycles through a slab-backed
// per-engine Pool. See DESIGN.md "Performance architecture".
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It deliberately mirrors time.Duration's resolution so that
// durations convert losslessly.
type Time int64

// Common conversions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromDuration converts a time.Duration to a sim.Time offset.
func FromDuration(d time.Duration) Time { return Time(d) }

// FromSeconds converts seconds to virtual time, rounding to nanoseconds.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

func (t Time) String() string { return time.Duration(t).String() }

// Timing-wheel geometry. Slots are 2^wheelShift nanoseconds (≈65.5 µs) so
// the slot of a timestamp is a shift, not a division; wheelSlots buckets
// span ≈537 ms, which covers every high-churn timer class the transport
// arms (pacer ticks, ACK returns, RACK rechecks, monitor intervals, and
// un-backed-off RTOs). A timer beyond the span sits in bucket
// slot&wheelMask with the nearer laps and is skipped by every drain until
// the frontier reaches its own slot: no cascading, no second structure.
const (
	wheelShift = 16
	wheelSlots = 8192 // power of two
	wheelMask  = wheelSlots - 1
)

// Timer is a scheduled callback: afn(arg) at (at, seq). Every timer is
// pooled — it recycles through the engine's pool the moment it fires or is
// stopped — so callers hold a TimerRef, never a *Timer.
type Timer struct {
	at  Time
	seq uint64
	afn func(any)
	arg any
	eng *Engine

	// Queue position: index >= 0 is the position in the imminent heap;
	// timerIdle (-1) means not queued; timerInWheel (-2) means linked into
	// the wheel bucket derived from at. Buckets are doubly-linked intrusive
	// lists through next/prev so cancellation unlinks in O(1).
	index int32
	next  *Timer
	prev  *Timer
	gen   uint64 // incremented every time the timer is recycled
}

const (
	timerIdle    = -1
	timerInWheel = -2
)

// TimerRef is a cheap, copyable handle to a cancellable timer, returned by
// At and ScheduleRef. The zero value is inert. A TimerRef stays safe to Stop
// after its timer fired and was recycled into a new role: the generation
// counter detects staleness, so a stale Stop is a no-op.
type TimerRef struct {
	t   *Timer
	gen uint64
}

// Stop cancels the referenced timer if this handle's incarnation is still
// pending, reporting whether it was. Stale handles (fired, already stopped,
// or recycled) return false and touch nothing. A pending timer is removed
// from its queue immediately — O(1) in the wheel, O(log n) in the imminent
// heap, which holds a slot's worth — so simulations that cancel many timers
// (pacing and RACK timers are re-armed all the time) accumulate no dead
// entries.
func (r TimerRef) Stop() bool {
	if !r.Pending() {
		return false
	}
	r.t.eng.dequeue(r.t)
	r.t.eng.release(r.t)
	return true
}

// Pending reports whether this handle's incarnation is still scheduled.
func (r TimerRef) Pending() bool {
	return r.t != nil && r.t.gen == r.gen
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	firing uint64 // seq of the event firing now; e.seq once Run reaches its horizon

	// imminent holds the timers whose slot is at or before the frontier:
	// the slot being drained plus whatever is scheduled into it meanwhile.
	imminent timerHeap

	// wheel is the single-level hashed timing wheel: bucket i holds an
	// unordered doubly-linked list of the timers strictly after the
	// frontier with at>>wheelShift ≡ i (mod wheelSlots), of whatever lap.
	// occ is its occupancy bitmap, wheelCount the total resident timers,
	// and frontier the absolute slot index up to which slots have been
	// drained into the imminent heap.
	wheel      []*Timer
	occ        []uint64
	wheelCount int
	frontier   int64

	timers   Pool[Timer]
	locals   []engineLocal
	rng      *rand.Rand
	stopped  bool
	maxQueue int
	stats    QueueStats
	// Processed counts executed events, for diagnostics and benchmarks.
	Processed uint64
}

// NewEngine returns an engine whose clock starts at 0 and whose random
// source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:    rand.New(rand.NewSource(seed)),
		wheel:  make([]*Timer, wheelSlots),
		occ:    make([]uint64, wheelSlots/64),
		timers: Pool[Timer]{Slab: 64},
	}
}

// ShardSeed derives the deterministic RNG seed for shard index i of a
// simulation seeded with seed. Shard 0 keeps the raw seed so a one-shard
// run is bit-identical to a plain single-engine run; the remaining shards
// mix the index with a 64-bit odd constant (golden-ratio, the usual
// splitmix increment) so neighboring shards get uncorrelated streams.
func ShardSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return seed ^ int64(uint64(i)*0x9E3779B97F4A7C15)
}

// engineLocal is one package's engine-scoped state (see Local).
type engineLocal struct{ key, val any }

// Local returns the engine-scoped value registered under key, building it
// with mk on first use. It is the one place layers above sim hang state
// that must live exactly as long as the engine and never be shared between
// engines — the object arenas of netem and transport, which outlive any one
// connection the way the timer pool does. Keys follow the context.Value
// convention (an unexported type per package). The lookup is a short linear
// scan, meant for constructors (NewPath, NewConnection), not per-packet code.
func (e *Engine) Local(key any, mk func() any) any {
	for _, l := range e.locals {
		if l.key == key {
			return l.val
		}
	}
	v := mk()
	e.locals = append(e.locals, engineLocal{key, v})
	return v
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// ---- imminent heap + timing wheel, ordered by (at, seq) ----
//
// Pop order is the total order (at, seq). Every timer in the imminent heap
// lies in a slot at or before the frontier and every wheel timer in a later
// one, so the heap's head, when there is one, is the global minimum. When
// the heap is empty the frontier moves to the next occupied bucket's slot,
// whose timers move into the heap; the bucket's later-lap timers stay
// behind. The wheel's internal arrangement — and in particular O(1)
// cancellations — cannot affect execution order.

func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// enqueue routes a freshly scheduled timer by its slot: at or before the
// frontier to the imminent heap, any later slot to its wheel bucket.
func (e *Engine) enqueue(t *Timer) {
	if n := e.Pending() + 1; n > e.maxQueue {
		e.maxQueue = n
	}
	slot := int64(t.at >> wheelShift)
	if slot <= e.frontier {
		e.imminent.push(t)
		e.stats.ImminentInserts++
		e.stats.ImminentMax = max(e.stats.ImminentMax, len(e.imminent))
		return
	}
	idx := slot & wheelMask
	e.link(idx, t)
	e.occ[idx>>6] |= 1 << (uint(idx) & 63)
	e.wheelCount++
	e.stats.WheelInserts++
	e.stats.WheelMax = max(e.stats.WheelMax, e.wheelCount)
}

// dequeue removes a pending timer from whichever tier holds it.
func (e *Engine) dequeue(t *Timer) {
	if t.index == timerInWheel {
		e.unlink(t)
		e.stats.WheelCancels++
	} else {
		e.imminent.removeAt(int(t.index))
		e.stats.ImminentCancels++
	}
}

// link pushes t onto the front of wheel bucket idx.
func (e *Engine) link(idx int64, t *Timer) {
	head := e.wheel[idx]
	t.index = timerInWheel
	t.prev = nil
	t.next = head
	if head != nil {
		head.prev = t
	}
	e.wheel[idx] = t
}

// unlink removes t from its wheel bucket in O(1).
func (e *Engine) unlink(t *Timer) {
	idx := int64(t.at>>wheelShift) & wheelMask
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		e.wheel[idx] = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	if e.wheel[idx] == nil {
		e.occ[idx>>6] &^= 1 << (uint(idx) & 63)
	}
	t.next, t.prev = nil, nil
	t.index = timerIdle
	e.wheelCount--
}

// drain moves the frontier to slot next, whose bucket is occupied, and the
// timers of that slot into the imminent heap, where (at, seq) ordering is
// restored. The bucket's later-lap timers are linked back in; its occupancy
// bit stays set while any remain.
func (e *Engine) drain(next int64) {
	e.frontier = next
	idx := next & wheelMask
	t := e.wheel[idx]
	e.wheel[idx] = nil
	for t != nil {
		n := t.next
		if int64(t.at>>wheelShift) == next {
			t.next, t.prev = nil, nil
			e.wheelCount--
			e.imminent.push(t)
		} else {
			e.link(idx, t)
		}
		t = n
	}
	if e.wheel[idx] == nil {
		e.occ[idx>>6] &^= 1 << (uint(idx) & 63)
	}
	e.stats.SlotDrains++
	e.stats.ImminentMax = max(e.stats.ImminentMax, len(e.imminent))
}

// nextOccupied scans the occupancy bitmap for the first occupied bucket
// strictly after the frontier, skipping empty ones a word at a time, and
// returns the absolute slot it stands for in the coming lap. The caller
// guarantees wheelCount > 0.
func (e *Engine) nextOccupied() int64 {
	start := e.frontier + 1
	for off := int64(0); off < wheelSlots; {
		idx := (start + off) & wheelMask
		word := e.occ[idx>>6]
		bit := uint(idx) & 63
		if w := word >> bit; w != 0 {
			return start + off + int64(bits.TrailingZeros64(w))
		}
		off += int64(64 - bit)
	}
	panic(fmt.Sprintf("sim: wheel occupancy bitmap is empty with wheelCount=%d (imminent=%d)",
		e.wheelCount, len(e.imminent)))
}

// nextTimer removes and returns the globally earliest pending timer, or nil
// when no timers remain: the imminent head, draining the next occupied slot
// first while the heap is empty.
func (e *Engine) nextTimer() *Timer {
	for len(e.imminent) == 0 {
		if e.wheelCount == 0 {
			return nil
		}
		e.drain(e.nextOccupied())
	}
	return e.imminent.popMin()
}

// timerHeap is an inlined monomorphic 4-ary min-heap ordered by (at, seq).
// Each timer records its position in index so removeAt needs no search.
type timerHeap []*Timer

func (hp *timerHeap) push(t *Timer) {
	h := append(*hp, t)
	*hp = h
	h.siftUp(len(h) - 1)
}

// popMin removes and returns the earliest timer.
func (hp *timerHeap) popMin() *Timer {
	h := *hp
	t := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	h = h[:n]
	*hp = h
	if n > 0 {
		h.siftDown(0)
	}
	t.index = timerIdle
	return t
}

// removeAt deletes the timer at heap position i (used by eager Stop).
func (hp *timerHeap) removeAt(i int) {
	h := *hp
	n := len(h) - 1
	t := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = int32(i)
	}
	h[n] = nil
	h = h[:n]
	*hp = h
	if i < n {
		h.siftDown(i)
		h.siftUp(i)
	}
	t.index = timerIdle
}

func (h timerHeap) siftUp(i int) {
	t := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !timerLess(t, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = t
	t.index = int32(i)
}

func (h timerHeap) siftDown(i int) {
	n := len(h)
	t := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Find the smallest of up to four children.
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if timerLess(h[j], h[min]) {
				min = j
			}
		}
		if !timerLess(h[min], t) {
			break
		}
		h[i] = h[min]
		h[i].index = int32(i)
		i = min
	}
	h[i] = t
	t.index = int32(i)
}

// ---- scheduling ----

func (e *Engine) checkFuture(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
}

// At schedules fn to run at absolute virtual time at and returns its
// cancellable handle: ScheduleRef with the closure as the argument.
// Scheduling in the past panics: it always indicates a logic error in a
// simulation component.
func (e *Engine) At(at Time, fn func()) TimerRef { return e.ScheduleRef(at, callFunc, fn) }

func callFunc(fn any) { fn.(func())() }

// grabPooled returns a pooled timer initialized for (at, afn, arg) at the
// next sequence number.
func (e *Engine) grabPooled(at Time, afn func(any), arg any) *Timer {
	e.seq++
	t := e.timers.Get()
	t.at, t.seq, t.afn, t.arg = at, e.seq, afn, arg
	t.eng, t.index = e, timerIdle
	return t
}

// Schedule posts afn(arg) at absolute virtual time at with no cancellation
// handle and returns its sequence number, the tie-break Fired compares. The
// backing Timer comes from (and returns to) the engine's timer pool, so
// steady-state anonymous events — packet arrivals, feedback — allocate
// nothing.
func (e *Engine) Schedule(at Time, afn func(any), arg any) uint64 {
	e.checkFuture(at)
	e.enqueue(e.grabPooled(at, afn, arg))
	return e.seq
}

// Fired reports whether the execution order has passed the instant (at, seq),
// seq being a number Schedule returned: at is in the past, or it is now and
// seq is at most that of the event firing now. Once Run reaches its horizon
// every instant up to it has passed. A component that would only update
// state in an event reads this instead and settles lazily (see netem's link
// queue).
func (e *Engine) Fired(at Time, seq uint64) bool {
	return at < e.now || at == e.now && seq <= e.firing
}

// ScheduleRef schedules afn(arg) at absolute virtual time at and returns a
// generation-checked cancellable handle. The backing Timer comes from the
// pool like Schedule's: it recycles the moment it fires or is stopped,
// and the TimerRef's generation makes any stale handle a harmless no-op.
// This is the zero-allocation cancellable timer for hot cancel-heavy paths
// (retransmission, pacing, RACK-recheck and revival-probe timers).
func (e *Engine) ScheduleRef(at Time, afn func(any), arg any) TimerRef {
	e.checkFuture(at)
	t := e.grabPooled(at, afn, arg)
	e.enqueue(t)
	return TimerRef{t: t, gen: t.gen}
}

// release returns a fired or stopped timer to the pool, retiring its
// generation so stale TimerRefs cannot touch it.
func (e *Engine) release(t *Timer) {
	t.afn, t.arg = nil, nil
	t.gen++
	e.timers.Put(t)
}

// Stop halts Run after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// fire executes t's callback (t is already off the queue). The timer is
// released before the callback runs: the callback may immediately re-arm a
// timer and reuse this very Timer for it, which is safe — the generation
// bump in release has already invalidated old refs.
func (e *Engine) fire(t *Timer) {
	e.now, e.firing = t.at, t.seq
	e.Processed++
	afn, arg := t.afn, t.arg
	e.release(t)
	afn(arg)
}

// Run executes events in order until the queue is empty, the horizon is
// reached, or Stop is called. The clock is left at the time of the last
// executed event, or at horizon if the horizon was reached with events still
// pending. A horizon of 0 means "run until idle".
func (e *Engine) Run(horizon Time) {
	e.stopped = false
	for !e.stopped {
		next := e.nextTimer()
		if next == nil {
			break
		}
		if horizon > 0 && next.at > horizon {
			// Not due within the horizon: put it back. Its slot is at or
			// before the frontier, so it lands in the imminent heap, where
			// it is the head.
			e.enqueue(next)
			e.now, e.firing = horizon, e.seq
			return
		}
		e.fire(next)
	}
	if horizon > 0 && e.now < horizon && e.Pending() == 0 {
		e.now, e.firing = horizon, e.seq
	}
}

// Step executes the single next pending event, if any, and reports whether
// one was executed.
func (e *Engine) Step() bool {
	next := e.nextTimer()
	if next == nil {
		return false
	}
	e.fire(next)
	return true
}

// NextAt returns the time of the event Run would fire next, or false once
// the engine is idle or Stop has been called since Run last began. Peeking
// reorders nothing (a slot drain it may do is the one Run or Step does
// before that firing), so a Step right after it fires exactly that event —
// how one goroutine steps several engines in time order.
func (e *Engine) NextAt() (Time, bool) {
	for !e.stopped && len(e.imminent) == 0 && e.wheelCount > 0 {
		e.drain(e.nextOccupied())
	}
	if e.stopped || len(e.imminent) == 0 {
		return 0, false
	}
	return e.imminent[0].at, true
}

// Pending returns the number of queued timers. Stopped timers are removed
// from the queue eagerly, so they are never counted.
func (e *Engine) Pending() int { return len(e.imminent) + e.wheelCount }

// MaxPending returns the high-water mark of queued timers over the engine's
// lifetime — a proxy for how much simultaneous in-flight state a scenario
// builds up, surfaced as a gauge by the experiment harness.
func (e *Engine) MaxPending() int { return e.maxQueue }

// QueueStats counts what each tier of the event queue did over the engine's
// lifetime: timers routed into it by a scheduling call (Inserts), timers
// stopped while resident (Cancels) and its occupancy high-water mark (Max).
// A timer a slot drain moves from the wheel to the imminent heap is not an
// imminent insert; drained timers are WheelInserts - WheelCancels less what
// the wheel still holds.
type QueueStats struct {
	ImminentInserts, ImminentCancels uint64
	WheelInserts, WheelCancels       uint64
	ImminentMax, WheelMax            int

	// SlotDrains counts the occupied buckets the frontier reached, those
	// holding only later-lap timers included.
	SlotDrains uint64
}

// QueueStats returns the queue's per-tier counters — the check, without a
// profiler, that far-future timers stay out of the heap every pop sifts.
func (e *Engine) QueueStats() QueueStats { return e.stats }
