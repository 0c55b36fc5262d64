package netem

import (
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// Token-bucket conformance at 8 Mbps = 1 byte/µs: refill amounts equal the
// elapsed microseconds. Sizes keep a ≥1-byte margin from exact refill
// equality so float rounding cannot flip a verdict.
func TestTokenBucketPolicerTable(t *testing.T) {
	type op struct {
		at      sim.Time
		size    int
		conform bool
	}
	cases := []struct {
		name    string
		rateBps float64
		burst   int
		ops     []op
	}{
		{
			name: "burst exhaustion back to back", rateBps: 8 * mbps, burst: 3000,
			ops: []op{
				{0, 1500, true},
				{0, 1500, true},
				{0, 1500, false}, // bucket empty, no time has passed
				{0, 1, false},    // even one byte is over
			},
		},
		{
			name: "refill across idle gap caps at burst", rateBps: 8 * mbps, burst: 3000,
			ops: []op{
				{0, 3000, true},
				{sim.Millisecond, 999, true},                 // ~1000 bytes back after 1 ms
				{sim.Millisecond, 500, false},                // only ~1 byte left
				{10 * sim.Second, 3000, true},                // long idle refills to the cap, not beyond
				{10 * sim.Second, 1, false},                  // nothing above the cap survives
				{10*sim.Second + 1, 1, false},                // 1 ns refills far less than a byte
				{10*sim.Second + 2*sim.Microsecond, 1, true}, // 2 µs ≈ 2 bytes
			},
		},
		{
			name: "slot boundary", rateBps: 8 * mbps, burst: 1500,
			ops: []op{
				{0, 1500, true},
				{1499 * sim.Microsecond, 1500, false}, // one byte short of a full refill
				{1501 * sim.Microsecond, 1500, true},  // one byte past it
			},
		},
		{
			name: "zero burst polices everything", rateBps: 8 * mbps, burst: 0,
			ops: []op{
				{0, 1, false},
				{sim.Second, 1, false}, // refill caps at the zero depth
				{2 * sim.Second, 1500, false},
			},
		},
		{
			name: "nonconforming take leaves balance intact", rateBps: 8 * mbps, burst: 2000,
			ops: []op{
				{0, 3000, false}, // oversized: refused without draining
				{0, 2000, true},  // the full burst is still there
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := NewTokenBucket(c.rateBps, c.burst, 0)
			for i, o := range c.ops {
				if got := tb.Conforms(o.at, o.size); got != o.conform {
					t.Fatalf("op %d (at=%v size=%d): conforms=%v, want %v (tokens=%.1f)",
						i, o.at, o.size, got, o.conform, tb.tokens)
				}
			}
		})
	}
}

func TestTokenBucketShaperBorrow(t *testing.T) {
	const tol = sim.Microsecond // FP slack: 1 byte at 8 Mbps
	near := func(got, want sim.Time) bool { return got-want <= tol && want-got <= tol }

	tb := NewTokenBucket(8*mbps, 1500, 0)
	if at := tb.Borrow(0, 1500); at != 0 {
		t.Fatalf("burst-covered borrow deferred to %v, want 0", at)
	}
	// Each further packet owes a full 1500-byte deficit = 1500 µs.
	if at := tb.Borrow(0, 1500); !near(at, 1500*sim.Microsecond) {
		t.Fatalf("second borrow conforms at %v, want ≈1500µs", at)
	}
	if at := tb.Borrow(0, 1500); !near(at, 3000*sim.Microsecond) {
		t.Fatalf("third borrow conforms at %v, want ≈3000µs", at)
	}
	// Monotonic even when the clock advances between borrows: 1 ms refills
	// 1000 of the 3000-byte debt, and the new packet adds 1500 more, so the
	// 3500-byte deficit clears 3500 µs after now.
	if at := tb.Borrow(sim.Millisecond, 1500); !near(at, 4500*sim.Microsecond) {
		t.Fatalf("fourth borrow conforms at %v, want ≈4500µs", at)
	}

	// Zero burst degenerates to pure CBR spacing.
	cbr := NewTokenBucket(8*mbps, 0, 0)
	for i := 1; i <= 3; i++ {
		want := sim.Time(i) * 1000 * sim.Microsecond
		if at := cbr.Borrow(0, 1000); !near(at, want) {
			t.Fatalf("CBR borrow %d conforms at %v, want ≈%v", i, at, want)
		}
	}
}

func TestTokenBucketPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero rate", func() { NewTokenBucket(0, 1000, 0) })
	mustPanic("negative burst", func() { NewTokenBucket(1e6, -1, 0) })
}

func TestLinkPolicerDropsWithoutQueueing(t *testing.T) {
	e := sim.NewEngine(1)
	// The wire is far faster than the contract, so only the policer bites.
	l := NewLink(e, "l", 1000*mbps, 0, 1<<20)
	l.SetPolicer(8*mbps, 3000)
	var causes []obs.DropCause
	l.SetProbes(obs.NewBus(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindDrop {
			causes = append(causes, ev.Cause)
		}
	})))
	p := NewPath(e, "p", l)
	var times []sim.Time
	sink := SinkFunc(func(*Packet) { times = append(times, e.Now()) })
	drops := 0
	var reason obs.DropCause
	onDrop := func(_ *Packet, r obs.DropCause) { drops++; reason = r }
	for i := 0; i < 6; i++ {
		p.Send(1000, nil, sink, onDrop) // 6000 bytes at t=0 against a 3000-byte burst
	}
	e.Run(0)
	if len(times) != 3 || drops != 3 {
		t.Fatalf("delivered %d dropped %d, want 3/3", len(times), drops)
	}
	if reason != obs.CausePolicer {
		t.Fatalf("drop reason = %v, want policer", reason)
	}
	// Non-queue-building: survivors see pure serialization (8 µs/packet at
	// 1000 Mbps), no policer-added delay anywhere.
	if last := times[len(times)-1]; last >= sim.Millisecond {
		t.Fatalf("policed survivors delayed to %v — policer must add zero delay", last)
	}
	st := l.Stats()
	if st.DropsPolicer != 3 || st.PolicerDropBytes != 3000 || st.PolicerPassedBytes != 3000 {
		t.Fatalf("policer stats = %+v", st)
	}
	if len(causes) != 3 || causes[0] != obs.CausePolicer {
		t.Fatalf("drop probes = %v, want 3× policer", causes)
	}
}

func TestLinkShaperDefersInsteadOfDropping(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 1000*mbps, 0, 1<<20)
	l.SetShaper(8*mbps, 1500)
	delayEvents := 0
	l.SetProbes(obs.NewBus(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindShaperDelay {
			delayEvents++
		}
	})))
	p := NewPath(e, "p", l)
	var times []sim.Time
	sink := SinkFunc(func(*Packet) { times = append(times, e.Now()) })
	drops := 0
	for i := 0; i < 4; i++ {
		p.Send(1500, nil, sink, func(*Packet, obs.DropCause) { drops++ })
	}
	e.Run(0)
	if drops != 0 || len(times) != 4 {
		t.Fatalf("delivered %d dropped %d, want 4/0 — shapers never drop", len(times), drops)
	}
	// The first packet rides the burst; each later one waits out its own
	// 1500-byte deficit, so deliveries space at ≈1500 µs.
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < 1400*sim.Microsecond || gap > 1600*sim.Microsecond {
			t.Fatalf("delivery gap %d = %v, want ≈1500µs", i, gap)
		}
	}
	if st := l.Stats(); st.ShaperDelayed != 3 {
		t.Fatalf("ShaperDelayed = %d, want 3", st.ShaperDelayed)
	}
	if delayEvents != 3 {
		t.Fatalf("shaper-delay probes = %d, want 3", delayEvents)
	}
}

func TestLinkPolicerShaperAccessors(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 100*mbps, 0, 1<<20)
	if _, _, on := l.Policer(); on {
		t.Fatal("fresh link reports a policer")
	}
	l.SetPolicer(8*mbps, 3000)
	if r, b, on := l.Policer(); !on || r != 8*mbps || b != 3000 {
		t.Fatalf("Policer() = %v %v %v", r, b, on)
	}
	l.SetPolicer(0, 0)
	if _, _, on := l.Policer(); on {
		t.Fatal("SetPolicer(0, 0) did not detach")
	}
	l.SetShaper(16*mbps, 6000)
	if sh := l.shaper; sh == nil || sh.rateBps != 16*mbps || sh.burst != 6000 {
		t.Fatalf("shaper = %+v", sh)
	}
	l.SetShaper(0, 0)
	if l.shaper != nil {
		t.Fatal("SetShaper(0, 0) did not detach")
	}
}
