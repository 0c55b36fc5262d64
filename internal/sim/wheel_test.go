package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// ---- reference implementation ----
//
// refQueue is the obviously-correct timer queue the timing wheel is checked
// against: a container/heap ordered by (at, seq) with eager removal. It
// shares no code with the engine's heap/wheel hybrid.

type refEntry struct {
	at  Time
	seq uint64
	id  int
	pos int
}

type refHeap []*refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEntry)
	e.pos = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	old[n] = nil
	*h = old[:n]
	e.pos = -1
	return e
}

type refQueue struct {
	h   refHeap
	seq uint64
	now Time
	ids map[int]*refEntry
}

func newRefQueue() *refQueue { return &refQueue{ids: map[int]*refEntry{}} }

func (q *refQueue) schedule(at Time, id int) {
	q.seq++
	e := &refEntry{at: at, seq: q.seq, id: id}
	heap.Push(&q.h, e)
	q.ids[id] = e
}

// cancel removes id if still pending and reports whether it was.
func (q *refQueue) cancel(id int) bool {
	e, ok := q.ids[id]
	if !ok || e.pos < 0 {
		return false
	}
	heap.Remove(&q.h, e.pos)
	return true
}

// popDue pops every entry due at or before horizon, in (at, seq) order.
func (q *refQueue) popDue(horizon Time) []int {
	var out []int
	for len(q.h) > 0 && q.h[0].at <= horizon {
		e := heap.Pop(&q.h).(*refEntry)
		q.now = e.at
		out = append(out, e.id)
	}
	return out
}

// popOne pops the minimum entry, mirroring a single engine fire.
func (q *refQueue) popOne() (int, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	e := heap.Pop(&q.h).(*refEntry)
	q.now = e.at
	return e.id, true
}

// ---- op scripts ----
//
// A script is a deterministic sequence of rounds applied identically to a
// sim.Engine and to the reference queue. Offsets are chosen to straddle
// every queue regime: the current slot (imminent heap), near slots (wheel),
// the slot boundary, the full span boundary, and beyond the span (later laps
// of the wheel).

type op struct {
	schedOffsets []Time // schedule one timer per offset (relative to now)
	cancels      []int  // ids to cancel before running
	runFor       Time   // horizon advance after scheduling/cancelling
	spawnEvery   int    // every n-th scheduled timer spawns a child on fire
	spawnOffset  Time
	cancelOnFire map[int]int // timer id -> id it cancels from its callback
}

// interestingOffsets are offsets that probe wheel geometry edges.
var interestingOffsets = []Time{
	0, 1, 2,
	Time(1) << wheelShift,       // exactly one slot
	(Time(1) << wheelShift) - 1, // just inside the current slot
	(Time(1) << wheelShift) + 1,
	Time(wheelSlots/2) << wheelShift, // mid-span
	Time(wheelSlots-1) << wheelShift, // last slot of the first lap
	Time(wheelSlots) << wheelShift,   // first slot of the second lap
	(Time(wheelSlots) << wheelShift) + 12345,
	3 * Time(wheelSlots) << wheelShift, // three laps out
	10 * wheelSpan, 100 * wheelSpan,
	Millisecond, 10 * Millisecond, 200 * Millisecond, Second,
}

func randomOffset(rng *rand.Rand) Time {
	switch rng.Intn(4) {
	case 0:
		return interestingOffsets[rng.Intn(len(interestingOffsets))]
	case 1:
		return Time(rng.Int63n(int64(4 * Millisecond))) // dense near-term
	case 2:
		return Time(rng.Int63n(int64(600 * Millisecond))) // spans the wheel
	default:
		return Time(rng.Int63n(int64(3 * Second))) // mostly later laps
	}
}

// runScript drives both implementations in lockstep: every engine fire must
// match the reference heap's minimum (at, seq) entry, so cancels and spawns
// issued from inside callbacks see an identical pending set on both sides.
// Every timer must fire exactly at its time, and Pending and MaxPending
// must agree with the reference's size and its high-water mark whichever
// tiers the timers sit in. It returns the engine's queue counters so a
// script can show it reached the regime it was built for.
func runScript(t *testing.T, ops []op) QueueStats {
	t.Helper()
	eng := NewEngine(7)
	ref := newRefQueue()
	refMax := 0

	nextID := 0
	handles := map[int]TimerRef{}
	spawned := map[int][2]int{} // parent id -> {child id, cancel target}

	var schedule func(at Time, id int)
	schedule = func(at Time, id int) {
		ref.schedule(at, id)
		refMax = max(refMax, len(ref.h))
		handles[id] = eng.ScheduleRef(at, func(a any) {
			i := a.(int)
			want, ok := ref.popOne()
			if !ok {
				t.Fatalf("engine fired id %d but reference is empty", i)
			}
			if want != i {
				t.Fatalf("pop order diverges: engine fired id %d, reference expects id %d", i, want)
			}
			if eng.Now() != at {
				t.Fatalf("id %d fired at %d, scheduled for %d", i, eng.Now(), at)
			}
			if sp, hit := spawned[i]; hit {
				if sp[0] >= 0 {
					// Schedule a child from inside the callback; both sides
					// see it at the same (now, seq) point because fires are
					// verified in lockstep.
					schedule(eng.Now()+13*Microsecond, sp[0])
				}
				if sp[1] >= 0 {
					got := handles[sp[1]].Stop()
					exp := ref.cancel(sp[1])
					if got != exp {
						t.Fatalf("cancel-on-fire of %d: engine %v, reference %v", sp[1], got, exp)
					}
				}
			}
		}, id)
	}

	for _, o := range ops {
		base := eng.Now()
		for i, off := range o.schedOffsets {
			id := nextID
			nextID++
			spawnChild, cancelTarget := -1, -1
			if o.spawnEvery > 0 && i%o.spawnEvery == 0 {
				spawnChild = nextID
				nextID++
			}
			if c, ok := o.cancelOnFire[id]; ok {
				cancelTarget = c
			}
			if spawnChild >= 0 || cancelTarget >= 0 {
				spawned[id] = [2]int{spawnChild, cancelTarget}
			}
			schedule(base+off, id)
		}
		for _, id := range o.cancels {
			got := handles[id].Stop()
			want := ref.cancel(id)
			if got != want {
				t.Fatalf("cancel %d: engine Stop=%v, reference=%v", id, got, want)
			}
		}
		horizon := base + o.runFor
		eng.Run(horizon)
		if len(ref.h) > 0 && ref.h[0].at <= horizon {
			t.Fatalf("engine stopped at horizon %d but reference still has id %d due at %d",
				horizon, ref.h[0].id, ref.h[0].at)
		}
		if eng.Pending() != len(ref.h) {
			t.Fatalf("Pending = %d at horizon %d, reference holds %d", eng.Pending(), horizon, len(ref.h))
		}
	}
	// Drain: whatever survives must still agree, in order.
	eng.Run(0)
	if len(ref.h) != 0 {
		t.Fatalf("engine drained but reference still holds %d entries", len(ref.h))
	}
	if eng.Pending() != 0 || eng.MaxPending() != refMax {
		t.Fatalf("drained: Pending = %d, MaxPending = %d; reference high-water %d",
			eng.Pending(), eng.MaxPending(), refMax)
	}
	return eng.QueueStats()
}

// TestWheelMatchesReferenceHeap is the differential property test: under
// randomized schedule/cancel/reschedule interleavings spanning every wheel
// regime, the engine must pop the exact (at, seq) sequence a reference heap
// pops. 60 seeds × 30 rounds ≈ 50k timers per run. Odd seeds start with a
// few hundred resident timers beyond the wheel span, which the rounds then
// cancel, re-arm and run into while the near ones churn.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ops []op
		id := 0
		for r := 0; r < 30; r++ {
			n := 1 + rng.Intn(40)
			o := op{
				runFor:       Time(rng.Int63n(int64(700 * Millisecond))),
				cancelOnFire: map[int]int{},
			}
			for i := 0; i < n; i++ {
				o.schedOffsets = append(o.schedOffsets, randomOffset(rng))
			}
			if r == 0 && seed%2 == 1 {
				residents := 200 + rng.Intn(200)
				for i := 0; i < residents; i++ {
					o.schedOffsets = append(o.schedOffsets, wheelSpan+Time(rng.Int63n(int64(8*Second))))
				}
				n += residents
			}
			if rng.Intn(3) == 0 {
				o.spawnEvery = 1 + rng.Intn(5)
			}
			// Cancel a random selection of everything scheduled so far,
			// including long-fired ids (Stop must be a stale no-op) and
			// double-cancels.
			hi := id + n
			for i := 0; i < rng.Intn(20); i++ {
				o.cancels = append(o.cancels, rng.Intn(hi+1)%max(hi, 1))
			}
			// Occasionally have a firing timer cancel a pending sibling.
			if n > 2 && rng.Intn(2) == 0 {
				o.cancelOnFire[id+rng.Intn(n)] = id + rng.Intn(n)
			}
			id = hi
			ops = append(ops, o)
		}
		runScript(t, ops)
	}
}

const (
	slotSpan  = Time(1) << wheelShift          // one wheel slot
	wheelSpan = Time(wheelSlots) << wheelShift // the whole wheel
)

// absOps turns rounds written in absolute times — at[i] schedules, until is
// the round's horizon — into the base-relative form runScript takes.
func absOps(rounds ...op) []op {
	base := Time(0)
	for i := range rounds {
		o := &rounds[i]
		for j := range o.schedOffsets {
			o.schedOffsets[j] -= base
		}
		o.runFor -= base
		base += o.runFor
	}
	return rounds
}

// TestFarHeapRegimes scripts the situations timers beyond the wheel span
// (far timers) create: they share a bucket with nearer laps and wait there,
// skipped by every drain, until the frontier reaches their own slot. Pop
// order, fire times, Pending and MaxPending are checked against the
// reference by runScript; the queue counters show each script reached its
// regime. Ids count schedules in script order from 0.
func TestFarHeapRegimes(t *testing.T) {
	const tie = wheelSpan + 100*slotSpan + 500 // mid-slot, a lap out from t = 0
	hour := 3600 * Second
	for _, tc := range []struct {
		name string
		ops  []op
		want QueueStats // Max fields are not compared
	}{
		{
			// Slot 8202 shares bucket 10 with slot 10: the drain of slot 10
			// moves only its own timer and links the far one back in, and
			// bucket 10 is drained again a lap later, before slot 8240. The
			// timer at slot 100 keeps the wheel occupied across the first
			// horizon, popped and put back into the imminent heap.
			name: "a far timer waits in a bucket a nearer lap drains",
			ops: absOps(
				op{schedOffsets: []Time{wheelSpan + 10*slotSpan, 10 * slotSpan, 100 * slotSpan}, runFor: 60 * slotSpan},
				op{schedOffsets: []Time{8240 * slotSpan}, runFor: 8300 * slotSpan},
			),
			want: QueueStats{WheelInserts: 4, SlotDrains: 4, ImminentInserts: 1},
		},
		{
			// Bucket 100 first holds only timers a lap out: its drain moves
			// nothing and the frontier goes on to slot 200. Four more land
			// in the same slot with equal at, and the whole slot is drained
			// at once: the seq tie is broken in the imminent heap (ids 0, 1
			// before 6; 2 before 7).
			name: "a bucket of only far timers, then equal at in one slot",
			ops: absOps(
				op{schedOffsets: []Time{tie, tie, tie + 1, 50 * slotSpan, 200 * slotSpan}, runFor: 120 * slotSpan},
				op{schedOffsets: []Time{tie - 1, tie, tie + 1, tie + 2}, runFor: tie + 10},
			),
			want: QueueStats{WheelInserts: 9, SlotDrains: 4, ImminentInserts: 1},
		},
		{
			// Only far timers: the frontier visits their buckets lap by lap.
			// At the second round it lags the clock by a whole span, so a
			// timer 1 ns ahead lands in the frontier's own bucket, a lap out.
			name: "only far timers, the frontier walks the laps",
			ops: absOps(
				op{schedOffsets: []Time{wheelSpan + 5*slotSpan, 2 * wheelSpan, 2 * wheelSpan, 3*wheelSpan + 7}, runFor: 4 * wheelSpan},
				op{schedOffsets: []Time{4*wheelSpan + 1, 4*wheelSpan + slotSpan, 4*wheelSpan + 10*slotSpan, 5*wheelSpan + 1}, runFor: 6 * wheelSpan},
			),
			want: QueueStats{WheelInserts: 8, SlotDrains: 11},
		},
		{
			// Run drains the far timer's slot, finds it past the horizon and
			// puts it back: it lands in the imminent heap (the frontier
			// moved to its slot), as do the timers scheduled before and just
			// after it. The second far timer is put back the same way, then
			// stopped there.
			name: "Run puts back a far timer",
			ops: absOps(
				op{schedOffsets: []Time{2 * wheelSpan}, runFor: wheelSpan},
				op{schedOffsets: []Time{wheelSpan + 10*slotSpan, 2*wheelSpan + 5}, runFor: 3 * wheelSpan},
				op{schedOffsets: []Time{5 * wheelSpan}, runFor: 4 * wheelSpan},
				op{cancels: []int{3}, runFor: 6 * wheelSpan},
			),
			want: QueueStats{WheelInserts: 2, SlotDrains: 5, ImminentInserts: 4, ImminentCancels: 1},
		},
		{
			// Id 0 cancels id 1, drained into the imminent heap with it; id 3
			// cancels the far id 2 out of bucket 0; the far id 4, in the same
			// bucket two laps further, fires.
			name: "callbacks cancel an imminent and a far timer",
			ops: absOps(op{
				schedOffsets: []Time{10*slotSpan + 5, 10*slotSpan + 6, 2 * wheelSpan, 20 * slotSpan, 3 * wheelSpan},
				cancelOnFire: map[int]int{0: 1, 3: 2},
				runFor:       4 * wheelSpan,
			}),
			want: QueueStats{WheelInserts: 5, WheelCancels: 1, SlotDrains: 5, ImminentCancels: 1},
		},
		{
			// A lone timer an hour out stays pending past a 10 s horizon —
			// reached by a drain of every lap of its bucket, then put back —
			// and fires exactly on time when the drain runs to idle.
			name: "a lone timer an hour out",
			ops:  []op{{schedOffsets: []Time{hour}, runFor: 10 * Second}},
			want: QueueStats{WheelInserts: 1, SlotDrains: uint64(hour>>wheelShift)/wheelSlots + 1, ImminentInserts: 1},
		},
	} {
		got := runScript(t, tc.ops)
		got.ImminentMax, got.WheelMax = 0, 0
		if got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// TestFarResidentsChurn keeps hundreds of timers resident beyond the wheel
// span, cancelling and re-arming a batch of them every 25 ms round while
// near-term timers churn through the wheel, long enough for the oldest to
// come due. The wheel must carry all of them and the imminent heap none
// before its slot.
func TestFarResidentsChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	far := func() Time { return wheelSpan + Time(rng.Int63n(int64(Second))) }
	first := op{runFor: 25 * Millisecond}
	for i := 0; i < 400; i++ {
		first.schedOffsets = append(first.schedOffsets, far())
	}
	ops := []op{first}
	for r, ids := 1, 400; r < 60; r++ {
		o := op{runFor: 25 * Millisecond, spawnEvery: 3}
		for i := 0; i < 30; i++ {
			o.cancels = append(o.cancels, rng.Intn(ids))
			o.schedOffsets = append(o.schedOffsets, far(), Time(rng.Int63n(int64(4*Millisecond))))
		}
		ids += 80 // 60 schedules, a spawned child for every third
		ops = append(ops, o)
	}
	q := runScript(t, ops)
	if q.WheelMax < 400 || q.WheelCancels < 500 || q.ImminentMax > 32 {
		t.Fatalf("the wheel did not carry the resident timers: %+v", q)
	}
}

// TestWheelFrontierFastForward covers the idle walk: a lone timer ten laps
// out must carry the frontier forward to its slot, and near-term timers
// scheduled afterwards must still order correctly.
func TestWheelFrontierFastForward(t *testing.T) {
	runScript(t, []op{
		{schedOffsets: []Time{5 * Second}, runFor: 5 * Second},
		{schedOffsets: []Time{Microsecond, 100 * Millisecond, 2, 0}, runFor: Second},
		{schedOffsets: []Time{10 * Second, 3, 3, 3}, runFor: 20 * Second},
	})
}

// FuzzTimingWheel feeds arbitrary byte strings as op scripts to the same
// differential check, so the fuzzer can search for wheel-geometry edge
// cases the random tests miss. Each byte pair encodes one action. The corpus
// under testdata/fuzz/FuzzTimingWheel holds the far-timer regimes of
// TestFarHeapRegimes in this encoding.
func FuzzTimingWheel(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0xff, 0x80, 0x40, 0x03, 0x07})
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, 0x55, 0xaa})
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			t.Skip()
		}
		eng := NewEngine(3)
		ref := newRefQueue()
		var fired, want []int
		handles := map[int]TimerRef{}
		var ats []Time // by id
		id := 0
		for i := 0; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			switch a % 3 {
			case 0: // schedule: b picks an offset class
				off := Time(b) << (uint(b%3) * 9) // 0..255, ..130k, ..66M ns
				if b%7 == 0 {
					off = Time(b) * 41 * Millisecond // up to ~10s: later laps
				}
				at := eng.Now() + off
				if a >= 0x80 && id > 0 && ats[int(b)%id] >= eng.Now() {
					// Land exactly on an earlier timer, which may sit in
					// another tier or lap: the tie is broken by seq.
					at = ats[int(b)%id]
				}
				ats = append(ats, at)
				ref.schedule(at, id)
				idc := id
				handles[id] = eng.ScheduleRef(at, func(any) { fired = append(fired, idc) }, nil)
				id++
			case 1: // cancel id b (mod scheduled)
				if id > 0 {
					c := int(b) % id
					got := handles[c].Stop()
					exp := ref.cancel(c)
					if got != exp {
						t.Fatalf("cancel %d: engine %v reference %v", c, got, exp)
					}
				}
			case 2: // run forward by a b-scaled amount (strictly positive:
				// Run(0) means drain-all, which the reference doesn't mirror)
				h := eng.Now() + Time(b)*(Time(1)<<(wheelShift-2)) + 1
				if a >= 0x80 {
					h = eng.Now() + Time(b)*5*Millisecond + 1 // up to ~1.3s: far timers come due
				}
				fired = fired[:0]
				eng.Run(h)
				want = ref.popDue(h)
				if len(fired) != len(want) {
					t.Fatalf("fired %d want %d", len(fired), len(want))
				}
				for j := range want {
					if fired[j] != want[j] {
						t.Fatalf("order diverges at %d: %d vs %d", j, fired[j], want[j])
					}
				}
				if eng.Pending() != len(ref.h) {
					t.Fatalf("Pending = %d, reference holds %d", eng.Pending(), len(ref.h))
				}
			}
		}
		fired = fired[:0]
		eng.Run(0)
		want = ref.popDue(Time(1) << 62)
		if len(fired) != len(want) {
			t.Fatalf("drain: fired %d want %d", len(fired), len(want))
		}
		for j := range want {
			if fired[j] != want[j] {
				t.Fatalf("drain order diverges at %d: %d vs %d", j, fired[j], want[j])
			}
		}
	})
}
