package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if Second != Time(time.Second) {
		t.Fatalf("Second = %d, want %d", Second, time.Second)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("(2s).Seconds() = %v, want 2", got)
	}
	if got := FromDuration(30 * time.Millisecond); got != 30*Millisecond {
		t.Fatalf("FromDuration = %v", got)
	}
	if got := (1500 * Millisecond).Duration(); got != 1500*time.Millisecond {
		t.Fatalf("Duration() = %v", got)
	}
}

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.At(at, func() { order = append(order, at) })
	}
	e.Run(0)
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("executed %d events, want 5", len(order))
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(10, func() { fired++ })
	e.At(200, func() { fired++ })
	e.Run(100)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("clock stopped at %v, want horizon 100", e.Now())
	}
	e.Run(0)
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

func TestEngineHorizonAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {})
	e.Run(500)
	if e.Now() != 500 {
		t.Fatalf("idle clock = %v, want 500", e.Now())
	}
}

// TestEngineAtFromCallback: a callback schedules relative to the time it
// fired at, not to the time the run started.
func TestEngineAtFromCallback(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(40, func() {
		e.At(e.Now()+5, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 45 {
		t.Fatalf("timer scheduled from a callback fired at %v, want 45", at)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
	// The next timer reuses the stopped one's Timer; the stale handle must
	// not reach it.
	next := e.At(20, func() {})
	if tm.Stop() || !next.Pending() {
		t.Fatal("a stale handle stopped the timer that recycled its Timer")
	}
	e.Run(0)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestEngineStopMidRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(0)
	if count != 3 {
		t.Fatalf("executed %d, want 3 (Stop should halt)", count)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.At(1, func() { n++ })
	e.At(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

// TestEngineNextAt: NextAt names the event Run would fire next — none for
// an idle engine or once Stop was called — and a Step after it fires
// exactly that event, even one the peek had to drain out of the wheel.
func TestEngineNextAt(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextAt(); ok {
		t.Fatal("idle engine reports an event due")
	}
	far := 2 * Second // beyond the wheel's span: resident in a later lap
	fired := Time(-1)
	e.At(far, func() { fired = e.Now() })
	if e.QueueStats().WheelInserts != 1 {
		t.Fatalf("timer at %v not in the wheel: %+v", far, e.QueueStats())
	}
	if at, ok := e.NextAt(); !ok || at != far {
		t.Fatalf("NextAt = %v, %v; want %v, true", at, ok, far)
	}
	if at, ok := e.NextAt(); !ok || at != far {
		t.Fatalf("second NextAt = %v, %v; want %v, true", at, ok, far)
	}
	if !e.Step() || fired != far || e.Processed != 1 {
		t.Fatalf("Step after the peek fired at %v (%d events), want the timer at %v", fired, e.Processed, far)
	}
	if _, ok := e.NextAt(); ok {
		t.Fatal("engine idle after its one timer reports an event due")
	}

	e.At(far+1, func() { e.Stop() })
	e.At(far+2, func() {})
	e.Run(0)
	if _, ok := e.NextAt(); ok || e.Pending() != 1 || e.Now() != far+1 {
		t.Fatalf("stopped engine: NextAt due=%v, %d pending, clock %v; want none, 1, %v", ok, e.Pending(), e.Now(), far+1)
	}
	e.Run(0)
	if _, ok := e.NextAt(); ok || e.Now() != far+2 {
		t.Fatalf("Run after Stop: due=%v at %v, want idle at %v", ok, e.Now(), far+2)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run(0)
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine(seed)
		var out []int
		var rec func()
		n := 0
		rec = func() {
			out = append(out, e.Rand().Intn(1000))
			n++
			if n < 50 {
				e.At(e.Now()+Time(1+e.Rand().Intn(100)), rec)
			}
		}
		e.At(0, rec)
		e.Run(0)
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

// Property: for any batch of events with random times, execution order is a
// stable sort by time.
func TestQuickEventOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine(7)
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, ti := range times {
			at := Time(ti)
			i := i
			e.At(at, func() { got = append(got, rec{at, i}) })
		}
		e.Run(0)
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].at > got[i].at {
				return false
			}
			if got[i-1].at == got[i].at && got[i-1].idx > got[i].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestProcessedCounter(t *testing.T) {
	e := NewEngine(1)
	for i := Time(0); i < 10; i++ {
		e.At(i, func() {})
	}
	stopped := e.At(11, func() {})
	stopped.Stop()
	e.Run(0)
	if e.Processed != 10 {
		t.Fatalf("Processed = %d, want 10", e.Processed)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.At(e.Now()+1, tick)
		}
	}
	b.ResetTimer()
	e.At(0, tick)
	e.Run(0)
}

// chain is one self-rescheduling timer that alternates between two hops.
type chain struct {
	eng *Engine
	hop [2]Time
	n   int
}

func chainTick(a any) {
	c := a.(*chain)
	c.n++
	c.eng.Schedule(c.eng.Now()+c.hop[c.n&1], chainTick, c)
}

// BenchmarkEngineQueue times one Step (pop, fire, re-schedule) against the
// three timer populations a run can hold: near is 1 024 chains hopping 120 µs
// and 30 ms (packets in flight: wheel and imminent heap only), far is 900
// chains hopping 600 and 900 ms (every timer a lap or more out), mixed is
// both at once — the overload population, where timers resident in later
// laps must not tax the near timers that do nearly all the firing.
func BenchmarkEngineQueue(b *testing.B) {
	for _, bc := range []struct {
		name      string
		near, far int
	}{{"near", 1024, 0}, {"far", 0, 900}, {"mixed", 1024, 900}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine(1)
			start := func(n int, short, long Time) {
				for i := 0; i < n; i++ {
					jitter := Time(i) * 37
					c := &chain{eng: e, hop: [2]Time{short + jitter, long + jitter}}
					e.Schedule(Time(i)*Microsecond, chainTick, c)
				}
			}
			start(bc.near, 120*Microsecond, 30*Millisecond)
			start(bc.far, 600*Millisecond, 900*Millisecond)
			for i := 0; i < 1<<16; i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// TestEngineLocal: engine-scoped state is built once per (engine, key) and
// never shared between engines.
func TestEngineLocal(t *testing.T) {
	type keyA struct{}
	type keyB struct{}
	built := 0
	mk := func() any { built++; return new(int) }
	e1, e2 := NewEngine(1), NewEngine(1)
	a := e1.Local(keyA{}, mk)
	if e1.Local(keyA{}, mk) != a || built != 1 {
		t.Fatalf("second lookup rebuilt the value (%d builds)", built)
	}
	if e1.Local(keyB{}, mk) == a {
		t.Fatal("distinct keys share a value")
	}
	if e2.Local(keyA{}, mk) == a {
		t.Fatal("distinct engines share a value")
	}
}

// TestFired pins the order Fired reports against: strictly earlier times,
// and at the current time exactly the seqs up to the firing event's, until a
// horizon makes every instant up to it past.
func TestFired(t *testing.T) {
	noop := func(any) {}
	cases := []struct {
		name string
		got  func() bool
		want bool
	}{
		{"before Run, an instant at time zero", func() bool {
			e := NewEngine(1)
			return e.Fired(0, e.Schedule(0, noop, nil))
		}, false},
		{"inside an event, a lower same-instant seq", func() bool {
			e := NewEngine(1)
			lo := e.Schedule(100, noop, nil)
			var got bool
			e.At(100, func() { got = e.Fired(100, lo) })
			e.Run(0)
			return got
		}, true},
		{"inside an event, its own seq", func() bool {
			e := NewEngine(1)
			var got bool
			var self uint64
			self = e.Schedule(100, func(any) { got = e.Fired(100, self) }, nil)
			e.Run(0)
			return got
		}, true},
		{"inside an event, a higher same-instant seq", func() bool {
			e := NewEngine(1)
			var got bool
			var hi uint64
			e.At(100, func() { got = e.Fired(100, hi) })
			hi = e.Schedule(100, noop, nil)
			e.Run(0)
			return got
		}, false},
		{"inside an event, a seq scheduled now for now", func() bool {
			e := NewEngine(1)
			var got bool
			e.At(100, func() { got = e.Fired(100, e.Schedule(100, noop, nil)) })
			e.Run(0)
			return got
		}, false},
		{"inside an event, an earlier time with a higher seq", func() bool {
			e := NewEngine(1)
			var got bool
			var hi uint64
			e.At(100, func() { got = e.Fired(99, hi) })
			hi = e.Schedule(99, noop, nil)
			e.Run(0)
			return got
		}, true},
		{"inside an event, a later time with a lower seq", func() bool {
			e := NewEngine(1)
			lo := e.Schedule(101, noop, nil)
			var got bool
			e.At(100, func() { got = e.Fired(101, lo) })
			e.Run(0)
			return got
		}, false},
		{"after a horizon, the last seq at the horizon", func() bool {
			e := NewEngine(1)
			e.Schedule(300, noop, nil)
			e.At(100, func() {})
			last := e.Schedule(200, noop, nil)
			e.Run(200)
			return e.Fired(200, last)
		}, true},
		{"after a horizon with nothing at it, the latest seq", func() bool {
			e := NewEngine(1)
			e.Schedule(300, noop, nil)
			last := e.Schedule(150, noop, nil)
			e.Run(200)
			return e.Now() == 200 && !e.Fired(200, last+1) && e.Fired(150, last)
		}, true},
		{"after a horizon with no event fired, an instant at it", func() bool {
			e := NewEngine(1)
			later := e.Schedule(300, noop, nil) // e.g. an arrival whose serialization ends at 200
			e.Run(200)
			return e.Fired(200, later)
		}, true},
		{"after a horizon, a seq scheduled for it afterwards", func() bool {
			e := NewEngine(1)
			e.Schedule(300, noop, nil)
			e.Run(200)
			return e.Fired(200, e.Schedule(200, noop, nil))
		}, false},
		{"after a horizon, the instant past it", func() bool {
			e := NewEngine(1)
			e.Run(200)
			return e.Fired(201, 0)
		}, false},
		{"after Stop, the stopping event's seq", func() bool {
			e := NewEngine(1)
			var stop uint64
			stop = e.Schedule(100, func(any) { e.Stop() }, nil)
			e.Schedule(100, noop, nil)
			e.Run(200)
			return e.Fired(100, stop)
		}, true},
		{"after Stop, a same-instant seq not yet fired", func() bool {
			e := NewEngine(1)
			e.Schedule(100, func(any) { e.Stop() }, nil)
			next := e.Schedule(100, noop, nil)
			e.Run(200)
			return e.Fired(100, next)
		}, false},
	}
	for _, tc := range cases {
		if got := tc.got(); got != tc.want {
			t.Errorf("%s: Fired = %v, want %v", tc.name, got, tc.want)
		}
	}
}
