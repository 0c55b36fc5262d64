package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestStopRemovesEagerly: Stop takes a timer out of whichever tier holds it
// at once — the imminent heap (slot 0 is at the frontier), the wheel within
// its first lap, the wheel a lap or more out — and each tier counts its own
// cancel.
func TestStopRemovesEagerly(t *testing.T) {
	e := NewEngine(1)
	var timers []TimerRef
	for _, at := range []Time{10, 20, 30, Millisecond, 2 * Millisecond, 3 * Millisecond, Second, 2 * Second, 3 * Second} {
		timers = append(timers, e.At(at, func() {}))
	}
	if e.Pending() != 9 {
		t.Fatalf("Pending = %d, want 9", e.Pending())
	}
	for i, mid := range []int{1, 4, 7} {
		if !timers[mid].Stop() {
			t.Fatalf("Stop on pending timer %d returned false", mid)
		}
		if want := 8 - i; e.Pending() != want {
			t.Fatalf("Pending after Stop %d = %d, want %d (eager removal)", mid, e.Pending(), want)
		}
		if timers[mid].Stop() {
			t.Fatalf("second Stop on timer %d returned true", mid)
		}
	}
	want := QueueStats{
		ImminentInserts: 3, WheelInserts: 6,
		ImminentCancels: 1, WheelCancels: 2,
		ImminentMax: 3, WheelMax: 6,
	}
	if got := e.QueueStats(); got != want {
		t.Fatalf("QueueStats = %+v, want %+v", got, want)
	}
	e.Run(0)
	if e.Processed != 6 {
		t.Fatalf("Processed = %d, want 6", e.Processed)
	}
}

// TestHeapOrderUnderRandomRemovals stresses removeAt on the imminent heap
// and unlink on a wheel bucket: random timers are scheduled, half into the
// slot at the frontier (the imminent heap) and half into one slot a second
// out (a later lap of the wheel), a random subset stopped, and the rest must
// still fire in (time, insertion) order.
func TestHeapOrderUnderRandomRemovals(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := NewEngine(1)
	type ev struct {
		at   Time
		seq  int
		dead bool
	}
	var (
		evs    []*ev
		timers []TimerRef
		fired  []int
	)
	for i := 0; i < 1000; i++ {
		v := &ev{at: Time(rng.Intn(100)) + Time(i%2)*Second, seq: i}
		evs = append(evs, v)
		i := i
		timers = append(timers, e.At(v.at, func() { fired = append(fired, i) }))
	}
	if q := e.QueueStats(); q.ImminentMax != 500 || q.WheelMax != 500 {
		t.Fatalf("timers did not split across the two tiers: %+v", q)
	}
	for i, v := range evs {
		if rng.Intn(3) == 0 {
			v.dead = true
			timers[i].Stop()
		}
	}
	e.Run(0)

	var want []int
	for i, v := range evs {
		if !v.dead {
			want = append(want, i)
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return evs[want[a]].at < evs[want[b]].at })
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order diverges at %d: got event %d, want %d", i, fired[i], want[i])
		}
	}
}

// TestSchedulePoolingReuse checks that Schedule-created timers recycle
// through the pool and that reuse does not disturb execution order.
func TestSchedulePoolingReuse(t *testing.T) {
	e := NewEngine(1)
	var order []int
	note := func(a any) { order = append(order, a.(int)) }
	// Interleave two rounds so fired timers from round one back the second.
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), note, i)
	}
	e.Run(0)
	made := e.timers.Made()
	if made == 0 || e.timers.InUse() != 0 {
		t.Fatalf("after the first round the pool made %d timers and %d are still out; want all back",
			made, e.timers.InUse())
	}
	for i := 10; i < 20; i++ {
		e.Schedule(Time(i+100), note, i)
	}
	if e.timers.Made() != made || e.timers.InUse() != 10 {
		t.Fatalf("Schedule did not reuse pooled timers: made %d -> %d, %d out",
			made, e.timers.Made(), e.timers.InUse())
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d", i, v, i)
		}
	}
}

// TestScheduleDeterminismWithPooling runs the same interleaved workload on
// two engines, one pre-warmed so it serves timers from the free list, and
// requires identical firing orders.
func TestScheduleDeterminismWithPooling(t *testing.T) {
	run := func(warm bool) []int {
		e := NewEngine(1)
		if warm {
			for i := 0; i < 50; i++ {
				e.Schedule(Time(i), func(any) {}, nil)
			}
			e.Run(0)
		}
		base := e.Now()
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			e.Schedule(base+Time(1+(i*37)%40), func(a any) { order = append(order, a.(int)) }, i)
		}
		e.Run(0)
		return order
	}
	cold, hot := run(false), run(true)
	if len(cold) != len(hot) {
		t.Fatalf("lengths differ: %d vs %d", len(cold), len(hot))
	}
	for i := range cold {
		if cold[i] != hot[i] {
			t.Fatalf("order diverges at %d: cold %d, hot %d", i, cold[i], hot[i])
		}
	}
}

// TestTimerPoolMatchesPending: a timer is out of the engine's pool exactly
// while it is queued. Under random schedules (imminent, wheel and later-lap
// slots), stops (fresh and stale) and fires, the pool's InUse equals Pending
// after every call and inside every callback, where the firing timer is
// already back.
func TestTimerPoolMatchesPending(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEngine(1)
	check := func(where string) {
		t.Helper()
		if in, p := e.timers.InUse(), e.Pending(); in != p {
			t.Fatalf("%s: pool has %d timers out, %d pending", where, in, p)
		}
	}
	var refs []TimerRef
	var fn func()
	fn = func() {
		check("callback")
		if rng.Intn(4) == 0 {
			refs = append(refs, e.At(e.Now()+Time(rng.Int63n(int64(Second))), fn))
		}
	}
	for round := 0; round < 200; round++ {
		for i := rng.Intn(20); i > 0; i-- {
			refs = append(refs, e.At(e.Now()+Time(rng.Int63n(int64(2*Second))), fn))
			check("schedule")
		}
		for i := rng.Intn(10); i > 0 && len(refs) > 0; i-- {
			refs[rng.Intn(len(refs))].Stop()
			check("stop")
		}
		e.Run(e.Now() + Time(rng.Int63n(int64(100*Millisecond))))
		check("run")
	}
	e.Run(0)
	check("drain")
	if e.Pending() != 0 || e.timers.Made() == 0 {
		t.Fatalf("drained: %d pending, pool made %d", e.Pending(), e.timers.Made())
	}
}
