package simtest

import (
	"bytes"
	"fmt"

	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/exp"
	"mpcc/internal/obs"
)

// Report is the outcome of auditing one scenario.
type Report struct {
	Scenario   Scenario
	Violations []Violation
	// TraceHash is the SHA-256 over the run's JSONL probe trace; with a
	// fixed scenario it is the replay-determinism fingerprint.
	TraceHash string
	Events    int // probe events hashed
	Result    *exp.Result
	// Flight is the run's flight recorder: a bounded ring holding the most
	// recent probe events, so an oracle failure can attach the tail of the
	// event history without the run having kept a full JSONL trace.
	Flight *obs.FlightRecorder
}

// FlightDump renders the last n flight-recorder events as replayable JSONL
// (the whole ring when n <= 0). Nil when the report has no recorder.
func (r *Report) FlightDump(n int) []byte {
	if r.Flight == nil {
		return nil
	}
	if n <= 0 {
		n = r.Flight.Len()
	}
	return r.Flight.AppendJSONL(nil, n)
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Has reports whether some violation is of the named invariant.
func (r *Report) Has(inv string) bool {
	for _, v := range r.Violations {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}

// Options tunes one Check run.
type Options struct {
	// BufferBound overrides the oracle's per-link queue-depth ceiling
	// (link name → bytes). Setting a bound below real occupancy is how the
	// tests prove the oracle catches a violation end to end.
	BufferBound map[string]int
	// Sinks are extra probe sinks attached to the run's bus (e.g. a JSONL
	// writer when dumping a failing trace).
	Sinks []obs.Sink
}

// Check runs the scenario under the full invariant oracle with a trace-hash
// sink and reports what it saw. It is a pure function of the scenario: the
// run happens on a fresh single-threaded engine seeded from Scenario.Seed,
// so two Checks of the same scenario are byte-identical.
func Check(sc Scenario) *Report { return CheckOpts(sc, Options{}) }

// CheckOpts is Check with options.
func CheckOpts(sc Scenario, opts Options) *Report {
	o := NewOracle()
	for link, b := range opts.BufferBound {
		o.OverrideBufferBound(link, b)
	}
	reorderOnly := sc.ReorderOnly()
	for i, f := range sc.Flows {
		switch exp.Protocol(f.Proto) {
		case exp.MPCCLoss, exp.MPCCLatency, exp.Vivace:
			// Rate-based flows: every MI decision and applied pacing rate
			// must stay inside the controller's rate envelope.
			o.ExpectRateBounds(FlowName(i), ccmpcc.MinRateBps, ccmpcc.MaxRateBps)
		}
		if f.Expect {
			o.ExpectDelivery(FlowName(i), int64(f.FileKB)*1024)
		}
		if reorderOnly {
			// Reordering alone must never surface as loss or stall progress;
			// the oracle self-gates on the run recording zero drops.
			o.ExpectCleanLoss(FlowName(i))
			o.ExpectProgress(FlowName(i), progressStallBound)
		}
	}
	hs := obs.NewHashSink()
	fr := obs.NewFlightRecorder(obs.DefaultFlightRecorderSize)
	bus := obs.NewBus(hs, o, fr)
	for _, s := range opts.Sinks {
		bus.AddSink(s)
	}
	res := exp.Run(sc.buildSpec(bus, o))
	return &Report{
		Scenario:   sc,
		Violations: o.Finalize(res),
		TraceHash:  hs.Sum(),
		Events:     hs.Events(),
		Result:     res,
		Flight:     fr,
	}
}

// CheckDeterminism runs the scenario twice and appends a trace-determinism
// violation to the first report if the two probe traces are not
// byte-identical.
func CheckDeterminism(sc Scenario) *Report {
	r1 := Check(sc)
	r2 := Check(sc)
	if r1.TraceHash != r2.TraceHash || r1.Events != r2.Events {
		r1.Violations = append(r1.Violations, Violation{
			Invariant: InvTraceDetermin,
			Detail: fmt.Sprintf("replays diverge: %s (%d events) vs %s (%d events)",
				r1.TraceHash[:12], r1.Events, r2.TraceHash[:12], r2.Events),
		})
	}
	return r1
}

// SnapshotReplayIdentity is the replay-equals-live sketch oracle: it runs the
// scenario once with a JSONL trace sink, replays the trace through a fresh
// metrics registry, and requires the rebuilt snapshot — counters, sketch-backed
// histogram stats, and the serialized windowed series — to match the live one
// exactly. Engine gauges (sim.*) are excluded: they come from the engine, not
// the event stream. Returns one violation per divergent metric.
func SnapshotReplayIdentity(sc Scenario) []Violation {
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	r := CheckOpts(sc, Options{Sinks: []obs.Sink{jw}})
	var out []Violation
	if err := jw.Flush(); err != nil {
		return append(out, Violation{Invariant: InvSnapshotReplay, Detail: fmt.Sprintf("trace flush: %v", err)})
	}
	live := r.Result.Obs
	if live == nil {
		return append(out, Violation{Invariant: InvSnapshotReplay, Detail: "probed run produced no snapshot"})
	}
	replayed := obs.NewRegistry()
	if err := obs.ReadTrace(&buf, func(e obs.Event) error {
		replayed.Record(e)
		return nil
	}); err != nil {
		return append(out, Violation{Invariant: InvSnapshotReplay, Detail: fmt.Sprintf("trace replay: %v", err)})
	}
	rs := replayed.Snapshot()
	for _, name := range live.SortedCounterNames() {
		if rs.Counters[name] != live.Counters[name] {
			out = append(out, Violation{Invariant: InvSnapshotReplay,
				Detail: fmt.Sprintf("counter %s: live %v, replayed %v", name, live.Counters[name], rs.Counters[name])})
		}
	}
	for _, name := range live.SortedHistogramNames() {
		if rs.Histograms[name] != live.Histograms[name] {
			out = append(out, Violation{Invariant: InvSnapshotReplay,
				Detail: fmt.Sprintf("histogram %s: live %+v, replayed %+v", name, live.Histograms[name], rs.Histograms[name])})
		}
	}
	if a, b := obs.AppendTimeline(nil, 0, live.Series), obs.AppendTimeline(nil, 0, rs.Series); !bytes.Equal(a, b) {
		out = append(out, Violation{Invariant: InvSnapshotReplay,
			Detail: "windowed series diverge between live run and trace replay"})
	}
	return out
}

// ShardIdentity is the space-parallel determinism oracle: it audits the
// scenario at every given shard count (each a full Check under the
// complete invariant oracle) and requires identical probe traces, event
// counts, and obs snapshots — counters, sketch-backed histogram stats, and
// the serialized windowed series — across all of them. Counts of 0 (legacy
// single engine) may only be compared when the scenario's partition is a
// single interaction component; counts >= 1 are comparable on any
// scenario, since the component layout and per-shard seeds depend only on
// the topology, never on the worker count. The first count's report is
// returned with any identity violations appended.
func ShardIdentity(sc Scenario, counts ...int) *Report {
	if len(counts) == 0 {
		counts = []int{1, 2, 4}
	}
	base := sc
	base.Shards = counts[0]
	r := Check(base)
	for _, n := range counts[1:] {
		alt := sc
		alt.Shards = n
		r2 := Check(alt)
		if r2.TraceHash != r.TraceHash || r2.Events != r.Events {
			r.Violations = append(r.Violations, Violation{
				Invariant: InvShardIdentity,
				Detail: fmt.Sprintf("shards=%d trace %s (%d events) ≠ shards=%d trace %s (%d events)",
					counts[0], r.TraceHash[:12], r.Events, n, r2.TraceHash[:12], r2.Events),
			})
			continue
		}
		r.Violations = append(r.Violations, diffSnapshots(r.Result.Obs, r2.Result.Obs,
			fmt.Sprintf("shards=%d vs shards=%d", counts[0], n))...)
	}
	return r
}

// diffSnapshots compares two obs snapshots metric by metric, returning one
// shard-identity violation per divergence.
func diffSnapshots(a, b *obs.Snapshot, label string) []Violation {
	var out []Violation
	if (a == nil) != (b == nil) {
		return append(out, Violation{Invariant: InvShardIdentity,
			Detail: fmt.Sprintf("%s: one run has no snapshot", label)})
	}
	if a == nil {
		return nil
	}
	names := a.SortedCounterNames()
	if len(names) != len(b.SortedCounterNames()) {
		out = append(out, Violation{Invariant: InvShardIdentity,
			Detail: fmt.Sprintf("%s: counter sets differ", label)})
	}
	for _, name := range names {
		if a.Counters[name] != b.Counters[name] {
			out = append(out, Violation{Invariant: InvShardIdentity,
				Detail: fmt.Sprintf("%s: counter %s: %v vs %v", label, name, a.Counters[name], b.Counters[name])})
		}
	}
	for _, name := range a.SortedHistogramNames() {
		if a.Histograms[name] != b.Histograms[name] {
			out = append(out, Violation{Invariant: InvShardIdentity,
				Detail: fmt.Sprintf("%s: histogram %s: %+v vs %+v", label, name, a.Histograms[name], b.Histograms[name])})
		}
	}
	if x, y := obs.AppendTimeline(nil, 0, a.Series), obs.AppendTimeline(nil, 0, b.Series); !bytes.Equal(x, y) {
		out = append(out, Violation{Invariant: InvShardIdentity,
			Detail: fmt.Sprintf("%s: windowed series diverge", label)})
	}
	return out
}

// ParallelIdentity checks the other half of replay determinism: auditing the
// scenarios one at a time must be indistinguishable from auditing them under
// exp.RunParallel with the given worker count. Returns one violation per
// scenario whose trace hashes differ.
func ParallelIdentity(scs []Scenario, workers int) []Violation {
	seq := make([]string, len(scs))
	for i, sc := range scs {
		seq[i] = Check(sc).TraceHash
	}
	par := make([]string, len(scs))
	prev := exp.Workers()
	exp.SetWorkers(workers)
	exp.RunParallel(len(scs), func(i int) { par[i] = Check(scs[i]).TraceHash })
	exp.SetWorkers(prev)

	var out []Violation
	for i := range scs {
		if seq[i] != par[i] {
			out = append(out, Violation{
				Invariant: InvParallelIdent,
				Detail: fmt.Sprintf("scenario seed %d: sequential %s ≠ parallel(%d) %s",
					scs[i].Seed, seq[i][:12], workers, par[i][:12]),
			})
		}
	}
	return out
}
