package obs

import (
	"bytes"
	"testing"

	"mpcc/internal/sim"
)

// collector is a test sink recording every event.
type collector struct{ events []Event }

func (c *collector) Emit(e Event) { c.events = append(c.events, e) }

func emitAll(b *Bus) {
	b.MIDecision(1e6, "flowA", 0, "decide", 12e6)
	b.UtilitySample(2e6, "flowA", 0, "decide", 12e6, 3.5)
	b.RateChange(3e6, "flowA", 1, 9e6)
	b.Drop(4e6, "wifi", CauseQueueFull, 1500)
	b.QueueDepth(5e6, "wifi", 45000)
	b.Retransmit(6e6, "flowA", 1, 1400)
	b.RTOBackoff(7e6, "flowA", 1, sim.Time(200e6), 2)
	b.SubflowDown(8e6, "flowA", 1)
	b.SubflowUp(9e6, "flowA", 1)
	b.SchedPick(10e6, "flowA", 0, 1400)
	b.RunStart(42, sim.Time(30e9))
	b.RunEnd(11e6)
	b.Reorder(12e6, "wifi", 1500, sim.Time(3e6))
	b.Duplicate(13e6, "wifi", 1500)
	b.AckCompress(14e6, "[wifi]", sim.Time(2e6))
	b.RackMark(15e6, "flowA", 1, 1400, sim.Time(5e6))
	b.SpuriousRetx(16e6, "flowA", 1, 1400, true)
	b.ShaperDelay(17e6, "wifi", 1500, sim.Time(4e6))
	b.Handover(18e6, "leo", 25e6, sim.Time(30e6))
	b.RTTSample(19e6, "flowA", 0, sim.Time(35e6))
	b.SessionOpen(20e6, "sess1", "srv0", 120000, 3)
	b.SessionClose(21e6, "sess1", "srv0", "done", sim.Time(500e6), 120000, 2)
	b.SessionReject(22e6, "sess2", "srv0", "conns", 1)
	b.SessionRetry(23e6, "sess2", sim.Time(40e6), 2)
}

func TestNilBusHelpersAreNoOpsAndAllocationFree(t *testing.T) {
	var b *Bus
	allocs := testing.AllocsPerRun(100, func() {
		emitAll(b)
	})
	if allocs != 0 {
		t.Fatalf("disabled probes allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestBusFansOutInOrder(t *testing.T) {
	c1, c2 := &collector{}, &collector{}
	b := NewBus(c1)
	b.AddSink(c2)
	emitAll(b)
	if len(c1.events) != int(numKinds) {
		t.Fatalf("sink 1 got %d events, want %d", len(c1.events), numKinds)
	}
	if len(c2.events) != len(c1.events) {
		t.Fatalf("sink 2 got %d events, sink 1 got %d", len(c2.events), len(c1.events))
	}
	for i, e := range c1.events {
		if e.Kind != Kind(i) {
			t.Errorf("event %d: kind %v, want %v", i, e.Kind, Kind(i))
		}
		if e != c2.events[i] {
			t.Errorf("event %d differs between sinks: %+v vs %+v", i, e, c2.events[i])
		}
	}
}

func TestBusesCompose(t *testing.T) {
	c := &collector{}
	outer := NewBus(c)
	inner := NewBus(outer) // a Bus is itself a Sink
	inner.Drop(1e6, "lte", CauseBurst, 1500)
	if len(c.events) != 1 || c.events[0].Cause != CauseBurst {
		t.Fatalf("composed bus did not forward: %+v", c.events)
	}
}

func TestKindAndCauseNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("kind %d name %q did not round-trip (got %d, ok=%v)", k, k.String(), got, ok)
		}
	}
	for c := DropCause(0); c < numCauses; c++ {
		got, ok := CauseFromString(c.String())
		if !ok || got != c {
			t.Errorf("cause %d name %q did not round-trip (got %d, ok=%v)", c, c.String(), got, ok)
		}
	}
	if _, ok := KindFromString("nope"); ok {
		t.Error("KindFromString accepted an unknown name")
	}
	if _, ok := CauseFromString("nope"); ok {
		t.Error("CauseFromString accepted an unknown name")
	}
}

func TestRegistryFoldsEvents(t *testing.T) {
	reg := NewRegistry()
	b := NewBus()
	b.SetRegistry(reg)
	emitAll(b)
	b.Drop(12e6, "wifi", CauseRandom, 1500)
	b.Drop(13e6, "wifi", CauseQueueFull, 1500)

	snap := reg.Snapshot()
	want := map[string]float64{
		"drops.queue-full": 2,
		"drops.random":     1,
		"drops.outage":     0,
		"drops.burst":      0,
		"drops.total":      3,
		"retransmits":      1,
		"retransmit_bytes": 1400,
		"rto_episodes":     1,
		"subflow_downs":    1,
		"subflow_ups":      1,
		"sched_picks":      1,
		"rate_changes":     1,
		"mi.decide":        1,
		"reorders":         1,
		"duplicates":       1,
		"ack_compressions": 1,
		"rack_marks":       1,
		"spurious_retx":    1,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("counter %s = %v, want %v", name, got, v)
		}
	}
	qd := snap.Histograms["queue_depth_bytes"]
	if qd.Count != 1 || qd.P50 != 45000 {
		t.Errorf("queue_depth_bytes stats = %+v, want one 45000 sample", qd)
	}
	ut := snap.Histograms["utility"]
	if ut.Count != 1 || ut.Mean != 3.5 {
		t.Errorf("utility stats = %+v, want one 3.5 sample", ut)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Sketch{}
	for i := 100; i >= 1; i-- { // insert descending to exercise lazy sort
		h.Observe(float64(i))
	}
	if got := h.Quantile(0.50); got != 50 {
		t.Errorf("P50 = %v, want 50", got)
	}
	if got := h.Quantile(0.99); got != 99 {
		t.Errorf("P99 = %v, want 99", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Q0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("Q1 = %v, want 100", got)
	}
	st := h.Stats()
	if st.Count != 100 || st.Min != 1 || st.Max != 100 || st.Mean != 50.5 {
		t.Errorf("Stats = %+v", st)
	}
	var empty Sketch
	if empty.Quantile(0.5) != 0 || empty.Stats().Count != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func traceOf(t *testing.T, emit func(b *Bus)) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	b := NewBus(jw)
	emit(b)
	if err := jw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

func TestJSONLByteStability(t *testing.T) {
	a := traceOf(t, emitAll)
	b := traceOf(t, emitAll)
	if !bytes.Equal(a, b) {
		t.Fatalf("repeat traces differ:\n%s\nvs\n%s", a, b)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := &collector{}
	orig := NewBus(c)
	emitAll(orig)

	data := traceOf(t, emitAll)
	var parsed []Event
	err := ReadTrace(bytes.NewReader(data), func(e Event) error {
		parsed = append(parsed, e)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(parsed) != len(c.events) {
		t.Fatalf("parsed %d events, emitted %d", len(parsed), len(c.events))
	}
	for i, e := range c.events {
		if parsed[i] != e {
			t.Errorf("event %d: parsed %+v, emitted %+v", i, parsed[i], e)
		}
	}
}

func TestReplayedRegistryMatchesLive(t *testing.T) {
	live := NewRegistry()
	b := NewBus()
	b.SetRegistry(live)
	emitAll(b)

	replayed := NewRegistry()
	data := traceOf(t, emitAll)
	if err := ReadTrace(bytes.NewReader(data), func(e Event) error {
		replayed.Record(e)
		return nil
	}); err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}

	ls, rs := live.Snapshot(), replayed.Snapshot()
	for _, name := range ls.SortedCounterNames() {
		if ls.Counters[name] != rs.Counters[name] {
			t.Errorf("counter %s: live %v, replayed %v", name, ls.Counters[name], rs.Counters[name])
		}
	}
	for _, name := range ls.SortedHistogramNames() {
		if ls.Histograms[name] != rs.Histograms[name] {
			t.Errorf("histogram %s: live %+v, replayed %+v", name, ls.Histograms[name], rs.Histograms[name])
		}
	}
}

func TestReadTraceRejectsMalformedLine(t *testing.T) {
	in := []byte("{\"t\":0,\"kind\":\"run-end\"}\nnot json\n")
	err := ReadTrace(bytes.NewReader(in), func(Event) error { return nil })
	if err == nil {
		t.Fatal("expected error for malformed line")
	}
	in = []byte("{\"t\":0,\"kind\":\"martian\"}\n")
	if err := ReadTrace(bytes.NewReader(in), func(Event) error { return nil }); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestSampleQueues(t *testing.T) {
	eng := sim.NewEngine(1)
	depth := 1000
	c := &collector{}
	b := NewBus(c)
	SampleQueues(eng, b, sim.Time(10e6), QueueProbe{Link: "wifi", Depth: func() int {
		depth += 500
		return depth
	}})
	eng.Run(sim.Time(45e6)) // samples at 10,20,30,40 ms
	if len(c.events) != 4 {
		t.Fatalf("got %d samples, want 4", len(c.events))
	}
	for i, e := range c.events {
		if e.Kind != KindQueueDepth || e.Link != "wifi" {
			t.Errorf("sample %d: %+v", i, e)
		}
		if want := int64(1500 + 500*i); e.Bytes != want {
			t.Errorf("sample %d depth %d, want %d", i, e.Bytes, want)
		}
		if want := sim.Time(10e6 * (i + 1)); e.At != want {
			t.Errorf("sample %d at %d, want %d", i, e.At, want)
		}
	}

	// Disabled or degenerate configurations are inert.
	idle := sim.NewEngine(1)
	SampleQueues(nil, nil, 0)
	SampleQueues(idle, nil, sim.Time(1e6), QueueProbe{Link: "x", Depth: func() int { return 0 }})
	SampleQueues(idle, b, 0, QueueProbe{Link: "x", Depth: func() int { return 0 }})
	SampleQueues(idle, b, sim.Time(1e6))
	if n := idle.Pending(); n != 0 {
		t.Fatalf("inert samplers scheduled %d events", n)
	}
}
