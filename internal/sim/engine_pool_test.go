package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestStopRemovesEagerly(t *testing.T) {
	e := NewEngine(1)
	a := e.At(10, func() {})
	b := e.At(20, func() {})
	c := e.At(30, func() {})
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	if !b.Stop() {
		t.Fatal("Stop on a pending timer returned false")
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending after Stop = %d, want 2 (eager removal)", e.Pending())
	}
	if b.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run(0)
	if e.Processed != 2 {
		t.Fatalf("Processed = %d, want 2", e.Processed)
	}
	_ = a
	_ = c
}

// TestHeapOrderUnderRandomRemovals stresses removeAt: random timers are
// scheduled, a random subset stopped, and the rest must still fire in
// (time, insertion) order.
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
		timers []*Timer
		fired  []int
	)
	for i := 0; i < 500; i++ {
		v := &ev{at: Time(rng.Intn(100)), seq: i}
		evs = append(evs, v)
		i := i
		timers = append(timers, e.At(v.at, func() { fired = append(fired, i) }))
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
// through the free list and that reuse does not disturb execution order.
func TestSchedulePoolingReuse(t *testing.T) {
	e := NewEngine(1)
	var order []int
	note := func(a any) { order = append(order, a.(int)) }
	// Interleave two rounds so fired timers from round one back the second.
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), note, i)
	}
	e.Run(0)
	if len(e.free) == 0 {
		t.Fatal("no timers were recycled to the free list")
	}
	freeBefore := len(e.free)
	for i := 10; i < 20; i++ {
		e.Schedule(Time(i+100), note, i)
	}
	if len(e.free) >= freeBefore && freeBefore >= 10 {
		t.Fatalf("Schedule did not reuse pooled timers (free %d -> %d)", freeBefore, len(e.free))
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
