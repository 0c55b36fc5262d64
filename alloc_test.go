// Steady-state allocation regression test for the emulator hot loop.
//
// The event core is designed to stop allocating once warm: timers, packets,
// transmission records, and segments all come from pools; an ACK carries its
// data packet's pooled record; backing arrays come from slabs and are
// recycled. This
// test boots the same saturated MPCC₂ rig as BenchmarkEmulatorThroughput,
// warms it past the point where pools and stat buffers have grown to their
// working size, and then requires continued simulation to be (amortized)
// allocation-free.
package mpcc_test

import (
	"io"
	"runtime"
	"testing"

	"mpcc"
	"mpcc/internal/exp"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

func TestEmulatorSteadyStateAllocs(t *testing.T) {
	eng := mpcc.NewEngine(7)
	net := mpcc.NewNetwork(eng)
	net.AddLink("l1", 100e6, 30*mpcc.Millisecond, 375_000)
	net.AddLink("l2", 100e6, 30*mpcc.Millisecond, 375_000)
	conn := mpcc.NewConnection(eng, "steady", mpcc.MPCCLoss,
		[]*mpcc.Path{net.Path("l1"), net.Path("l2")}, mpcc.AttachOptions{})
	conn.SetApp(mpcc.Bulk{}, nil)
	conn.Start(0)

	// Warm-up: long enough for every pool, queue, and per-MI statistics
	// buffer to reach its steady working size.
	horizon := 3 * mpcc.Second
	eng.Run(horizon)

	const (
		rounds = 50
		step   = 50 * mpcc.Millisecond
	)
	avg := testing.AllocsPerRun(rounds, func() {
		horizon += step
		eng.Run(horizon)
	})
	// Each 50 ms chunk processes ~3k events. A warm emulator allocates only
	// for rare amortized slice growth; average a small fixed budget per
	// chunk, far below one allocation per event.
	if avg > 8 {
		t.Fatalf("steady-state emulator allocates %.1f times per %v chunk, want ≤ 8", avg, step)
	}
}

// TestProbedSteadyStateAllocs is the enabled-observability twin: the same
// saturated rig with a full probe pipeline attached — a metrics registry
// (sketch-backed histograms plus windowed series), a flight-recorder ring,
// a JSONL trace sink, link drop probes, and the periodic queue sampler —
// must also stop allocating once warm. The sketch's fixed log-spaced
// buckets, the series' preallocated windows, the recorder's value-copy ring,
// the line encoder's bounded prefix table and the sampler's pooled timer are
// what make always-on telemetry affordable at population scale.
func TestProbedSteadyStateAllocs(t *testing.T) {
	eng := mpcc.NewEngine(7)
	net := mpcc.NewNetwork(eng)
	net.AddLink("l1", 100e6, 30*mpcc.Millisecond, 375_000)
	net.AddLink("l2", 100e6, 30*mpcc.Millisecond, 375_000)

	bus := mpcc.NewProbeBus(mpcc.NewFlightRecorder(0), mpcc.NewJSONLWriter(io.Discard))
	bus.SetRegistry(mpcc.NewMetricsRegistry())
	var qps []mpcc.QueueProbe
	for _, name := range []string{"l1", "l2"} {
		l := net.Link(name)
		l.SetProbes(bus)
		qps = append(qps, l.QueueProbe())
	}
	mpcc.SampleQueues(eng, bus, 10*mpcc.Millisecond, qps...)
	paths := []*mpcc.Path{net.Path("l1"), net.Path("l2")}
	for _, p := range paths {
		p.SetProbes(bus)
	}
	conn := mpcc.NewConnection(eng, "steady", mpcc.MPCCLoss, paths,
		mpcc.AttachOptions{Probes: bus})
	conn.SetApp(mpcc.Bulk{}, nil)
	conn.Start(0)

	horizon := 3 * mpcc.Second
	eng.Run(horizon)

	const (
		rounds = 50
		step   = 50 * mpcc.Millisecond
	)
	avg := testing.AllocsPerRun(rounds, func() {
		horizon += step
		eng.Run(horizon)
	})
	// A chunk holds five sampler ticks, so the bound must sit below 5 for an
	// allocation per tick to show; the warm pipeline measures 0.
	if avg > 2 {
		t.Fatalf("probed steady-state allocates %.1f times per %v chunk, want ≤ 2", avg, step)
	}
}

// TestChurnSteadyStateAllocs guards the same property under connection
// churn: pooled objects belong to the engine, not to a connection, and a
// session's connection, subflows, series and MPCC controllers are recycled
// when it closes (the connection once its packets drain), so a session
// opened late in a run is built from what closed sessions released. The
// canonical overload spec (1.3x the farm's capacity, ~230 accepted sessions
// per virtual second) is run to two horizons, both past the ramp to its
// peak concurrency; the longer run replays the shorter and then continues,
// so the difference in allocations over the difference in accepted
// sessions is the warm cost of one more session. What is left is its name
// (one per arrival, ~1.25 per accepted session) and the recycled storage
// still growing for a session longer than every one before it on the same
// objects: 1.65 objects and 345 B at seed 7 (1.78 and 439 B while backing
// arrays started empty and doubled their way up).
func TestChurnSteadyStateAllocs(t *testing.T) {
	run := func(dur sim.Time) (mallocs, bytes uint64, accepted int) {
		spec := exp.ChurnSpecAt(exp.Config{Seed: 7, Duration: dur, Warmup: sim.Second}, 1.3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		accepted = exp.Run(spec).Churn.Accepted
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, accepted
	}
	m1, b1, n1 := run(20 * sim.Second)
	m2, b2, n2 := run(40 * sim.Second)
	if n1 < 2000 || n2-n1 < 2000 {
		t.Fatalf("churn spec too light to measure: %d then %d accepted sessions", n1, n2)
	}
	objs, bytes := float64(m2-m1)/float64(n2-n1), float64(b2-b1)/float64(n2-n1)
	t.Logf("%d allocations, %d bytes for %d more sessions: %.2f objects, %.0f B per session", m2-m1, b2-b1, n2-n1, objs, bytes)
	if objs > 2.25 || bytes > 400 {
		t.Fatalf("a warm churn session allocates %.2f objects and %.0f B, want ≤ 2.25 and ≤ 400 B", objs, bytes)
	}
}

// TestChurnRunAllocs bounds what one whole 20 s run of the overload spec
// allocates, warm-up included: a session holds its connection, subflows and
// MPCC controllers only while it is live, so the run builds about as many
// of them as its peak concurrency needs, and the backing arrays they use
// (queues, outstanding records, open MIs and their RTT samples, receiver
// islands) come sixteen to a slab: about 13 600 objects and 8.2 MB at this
// seed. Arrays that started empty and doubled their way up made it 35 800
// objects and 9.4 MB; holding each closed session's objects through its
// 2 s drain audit on top of that, 58 700 and 12.3 MB.
func TestChurnRunAllocs(t *testing.T) {
	spec := exp.ChurnSpecAt(exp.Config{Seed: 1000, Duration: 20 * sim.Second, Warmup: sim.Second}, 1.3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := exp.Run(spec).Churn
	runtime.ReadMemStats(&after)
	objs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d objects, %d bytes for %d accepted sessions at a peak of %d", objs, bytes, st.Accepted, st.PeakActive)
	if st.Accepted < 4000 || st.PeakActive < 200 {
		t.Fatalf("churn spec too light to measure: %d accepted, peak %d", st.Accepted, st.PeakActive)
	}
	if objs > 15_500 || bytes > 9_400_000 {
		t.Fatalf("a 20 s overload run allocates %d objects and %d bytes, want ≤ 15 500 and ≤ 9.4 MB", objs, bytes)
	}
}

// TestFig3cRunAllocs bounds what one whole 20 s Fig. 3c run allocates, for
// a paced protocol (MPCC-loss) and an ACK-clocked one (LIA), after a first
// run has warmed the process: about 470 and 350 objects at seed 1 (620
// and 425 while backing arrays doubled their way up instead of coming from
// slabs). An acknowledgement carries its data packet's record back to the
// sender, so nothing is built per ACK in flight; a pooled object per
// feedback packet, growing to the peak number of ACKs in flight (≈ 500),
// would more than double both.
func TestFig3cRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		proto exp.Protocol
		max   uint64
	}{{exp.MPCCLoss, 535}, {exp.LIA, 400}} {
		spec := exp.Spec{Seed: 1, Duration: 20 * sim.Second, Warmup: 6 * sim.Second, Topo: topo.Fig3c(), Proto: tc.proto}
		exp.Run(spec)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		exp.Run(spec)
		runtime.ReadMemStats(&after)
		objs := after.Mallocs - before.Mallocs
		t.Logf("%s: %d objects, %d bytes", tc.proto, objs, after.TotalAlloc-before.TotalAlloc)
		if objs > tc.max {
			t.Errorf("a 20 s Fig. 3c run of %s allocates %d objects, want ≤ %d", tc.proto, objs, tc.max)
		}
	}
}
