package simtest

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mpcc/internal/exp"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// scenarioBudget returns how many random scenarios the fuzzing tests sweep.
// The default keeps tier-1 CI well under a minute; `make simtest` raises it
// via SIMTEST_N.
func scenarioBudget(t *testing.T, def int) int {
	if s := os.Getenv("SIMTEST_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad SIMTEST_N=%q", s)
		}
		return n
	}
	if testing.Short() {
		return def / 10
	}
	return def
}

// baseSeed offsets the scenario corpus; override to explore a fresh region
// of the scenario space without touching code.
func baseSeed(t *testing.T) int64 {
	if s := os.Getenv("SIMTEST_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SIMTEST_SEED=%q", s)
		}
		return n
	}
	return 1
}

// TestRandomScenarios is the main fuzz sweep: hundreds of generated
// scenarios, each audited by the full invariant oracle. A failure shrinks
// itself and prints a one-line repro command.
func TestRandomScenarios(t *testing.T) {
	base, seeds := baseSeed(t), make([]int64, scenarioBudget(t, 220))
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	if failed := sweep(seeds, nil); len(failed) > 0 {
		reportFailures(t, failed)
	} else {
		t.Logf("audited %d scenarios, 0 violations", len(seeds))
	}
}

// sweep audits the generated scenario of every seed on a pool of GOMAXPROCS
// workers and returns the failing reports in seed order. A passing report —
// flight ring and all — is dropped as soon as its scenario is done, so a
// sweep's memory does not grow with its length; visit, if set, reads every
// report first (on the worker that produced it, so it must only write
// per-index state).
func sweep(seeds []int64, visit func(i int, r *Report)) []*Report {
	failed := make([]*Report, len(seeds))
	exp.RunParallel(len(seeds), 0, func(i int) {
		r := Check(FromSeed(seeds[i]))
		if visit != nil {
			visit(i, r)
		}
		if r.Failed() {
			failed[i] = r
		}
	})
	return slices.DeleteFunc(failed, func(r *Report) bool { return r == nil })
}

// reportFailures shrinks and logs the first three failing reports of a sweep.
func reportFailures(t *testing.T, failed []*Report) {
	t.Helper()
	for i, r := range failed {
		if i == 3 {
			t.Errorf("…and %d more failures; stopping the detail at 3", len(failed)-i)
			break
		}
		reportFailure(t, r, Options{})
	}
}

// reportFailure shrinks a failing report and logs the minimal reproducer,
// attaching the flight-recorder tail: the full ring goes to a file, the last
// few events inline.
func reportFailure(t *testing.T, r *Report, opts Options) {
	t.Helper()
	target := r.Violations[0].Invariant
	sh := Shrink(r.Scenario, target, opts)
	t.Errorf("scenario seed %d violates %q:\n  %s\noriginal: %s\nshrunk (%d steps, %d checks): %s\nrepro: %s\n%s",
		r.Scenario.Seed, target, formatViolations(r.Violations),
		r.Scenario, sh.Steps, sh.Checks, sh.Scenario, sh.Scenario.ReproCommand(),
		flightSummary(r, ""))
}

// flightSummary dumps the report's flight recorder: the whole ring to a new
// file in dir (replayable with mpcctrace), the last 16 events inline. A
// failure report passes "", the OS temp directory, so its dump outlives the
// test.
func flightSummary(r *Report, dir string) string {
	full := r.FlightDump(0)
	if len(full) == 0 {
		return "flight recorder: empty"
	}
	loc := "(temp file write failed; tail only)"
	if f, err := os.CreateTemp(dir, "mpcc-flightrec-*.jsonl"); err == nil {
		if _, err := f.Write(full); err == nil {
			loc = f.Name()
		}
		f.Close()
	}
	return fmt.Sprintf("flight recorder: last %d of %d events -> %s; tail:\n%s",
		r.Flight.Len(), r.Flight.Total(), loc, r.FlightDump(16))
}

func formatViolations(vs []Violation) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%s at %v: %s", v.Invariant, v.At, v.Detail)
	}
	return strings.Join(out, "\n  ")
}

// TestInjectedViolationIsCaught proves the oracle and shrinker work end to
// end: lowering the oracle's buffer bound below real queue occupancy must be
// detected, shrink to something no bigger, and produce a deterministic repro
// command that still fails.
func TestInjectedViolationIsCaught(t *testing.T) {
	// A bulk MPCC flow on one modest link fills the drop-tail queue, so an
	// oracle bound of a single packet is guaranteed to be exceeded.
	sc := Scenario{
		Seed:       42,
		DurationMs: 1500,
		Links: []LinkSpec{
			{RateMbps: 8, DelayMs: 10, BufBytes: 30000},
			{RateMbps: 8, DelayMs: 10, BufBytes: 30000},
		},
		Flows: []FlowSpec{
			{Proto: string(exp.MPCCLoss), Paths: [][]int{{0}, {1}}},
			{Proto: string(exp.Cubic), Paths: [][]int{{1}}},
		},
		Faults: []FaultSpec{{Kind: FaultOutage, Link: 1, AtMs: 400, DurMs: 150}},
	}
	opts := Options{BufferBound: map[string]int{"l0": 1500}}

	if clean := Check(sc); clean.Failed() {
		t.Fatalf("scenario must pass without the injected bound, got:\n  %s",
			formatViolations(clean.Violations))
	}
	r := CheckOpts(sc, opts)
	if !r.Has(InvQueueBound) {
		t.Fatalf("injected bound of 1500 B not caught; violations:\n  %s",
			formatViolations(r.Violations))
	}

	sh := Shrink(sc, InvQueueBound, opts)
	if !sh.Report.Has(InvQueueBound) {
		t.Fatalf("shrunk scenario no longer violates %s: %s", InvQueueBound, sh.Scenario)
	}
	if sh.Steps == 0 {
		t.Errorf("shrinker accepted no reduction from %s", sc)
	}
	if got, orig := scenarioSize(sh.Scenario), scenarioSize(sc); got >= orig {
		t.Errorf("shrunk scenario not smaller: %d parts vs %d (%s)", got, orig, sh.Scenario)
	}
	// The repro command must replay to the same failure: parse the embedded
	// JSON back out and re-run it.
	cmd := sh.Scenario.ReproCommand()
	payload := strings.TrimPrefix(cmd, "SIMTEST_SCENARIO='")
	payload = payload[:strings.Index(payload, "'")]
	parsed, err := ParseScenario(payload)
	if err != nil {
		t.Fatalf("repro payload does not parse: %v\n%s", err, cmd)
	}
	if !CheckOpts(parsed, opts).Has(InvQueueBound) {
		t.Fatalf("repro payload does not reproduce the violation: %s", cmd)
	}
	t.Logf("caught, shrunk %d→%d parts in %d checks; repro: %s",
		scenarioSize(sc), scenarioSize(sh.Scenario), sh.Checks, cmd)
}

// hostileScenario is a hand-built reorder-only scenario engineered so the
// hostile-path oracles are provably armed and non-vacuous: a single window
// flow whose file (150 KB) is smaller than the bottleneck buffer (300 KB)
// can never overflow the queue, so the run records zero drops and the
// clean-loss and progress-stall checks actually execute.
func hostileScenario() Scenario {
	return Scenario{
		Seed:       11,
		DurationMs: 3000,
		Links: []LinkSpec{{
			RateMbps: 20, DelayMs: 15, BufBytes: 300000,
			ReorderPct: 20, ReorderCorr: 0.3, ReoEarlyMs: 10,
		}},
		Flows: []FlowSpec{{
			Proto: string(exp.Reno), Paths: [][]int{{0}},
			FileKB: 146, Expect: true, AckCompressMs: 2,
		}},
	}
}

// TestReorderOnlyScenarioPassesOracles pins the tentpole's system-level
// acceptance property inside the simulation-testing harness: on a path that
// reorders (but never drops), the full oracle — including zero corrected
// loss and bounded forward progress — holds, and the checks demonstrably ran
// against a run that really reordered packets and really dropped none.
func TestReorderOnlyScenarioPassesOracles(t *testing.T) {
	sc := hostileScenario()
	if !sc.ReorderOnly() {
		t.Fatal("scenario not classified reorder-only; oracles would not arm")
	}
	r := Check(sc)
	if r.Failed() {
		t.Fatalf("reorder-only scenario violates invariants:\n  %s", formatViolations(r.Violations))
	}
	l := r.Result.Net.Link("l0")
	st := l.Stats()
	if st.Reordered == 0 {
		t.Fatal("link reordered nothing; the scenario is not testing reordering")
	}
	if drops := st.DropsQueueFull + st.DropsRandom + st.DropsOutage + st.DropsBurst; drops != 0 {
		t.Fatalf("run recorded %d drops; the clean-loss oracle was gated off", drops)
	}
	conn := r.Result.Conns["f0"]
	if conn.FCT() < 0 {
		t.Fatal("file did not complete; the clean-loss check was skipped")
	}
	t.Logf("reordered %d packets; lost=%d spurious=%d gap=%v",
		st.Reordered, conn.Subflows()[0].LostPkts(),
		conn.Subflows()[0].SpuriousPkts(), conn.MaxDeliveryGap())
}

// TestProgressStallOracleFires proves the stall oracle end to end the same
// way the buffer-bound tests do: pin an absurdly small bound on a healthy
// run and require the violation to surface.
func TestProgressStallOracleFires(t *testing.T) {
	sc := hostileScenario()
	o := NewOracle()
	o.ExpectProgress("f0", sim.Microsecond)
	bus := obs.NewBus(o)
	res := exp.Run(sc.buildSpec(bus, o))
	found := false
	for _, v := range o.Finalize(res) {
		if v.Invariant == InvProgressStall {
			found = true
		}
	}
	if !found {
		t.Fatal("1µs progress bound not violated; the stall oracle is dead code")
	}
}

// TestDuplicationScenarioKeepsLedger runs a duplicating link through the
// full oracle: link-level duplicates (and the duplicate ACKs they trigger)
// must not break the byte ledger or conservation invariants.
func TestDuplicationScenarioKeepsLedger(t *testing.T) {
	sc := Scenario{
		Seed:       13,
		DurationMs: 3000,
		Links:      []LinkSpec{{RateMbps: 20, DelayMs: 15, BufBytes: 300000, DupPct: 30}},
		Flows: []FlowSpec{{
			Proto: string(exp.Reno), Paths: [][]int{{0}}, FileKB: 100, Expect: true,
		}},
	}
	r := Check(sc)
	if r.Failed() {
		t.Fatalf("duplication scenario violates invariants:\n  %s", formatViolations(r.Violations))
	}
	if r.Result.Net.Link("l0").Stats().Duplicated == 0 {
		t.Fatal("link duplicated nothing; the scenario is not testing duplication")
	}
	conn := r.Result.Conns["f0"]
	if got, want := conn.ReceivedBytes(), int64(100*1024); got != want {
		t.Fatalf("ReceivedBytes = %d, want exactly %d (duplicates must dedup)", got, want)
	}
}

// TestExpectDeliveryPremise pins the seeds whose small files the generator
// used to expect delivered although BBR, Vivace or MPCC competitors (and,
// for three of them, churn sessions) shared their links: the expectation is
// no longer armed, and the scenarios pass the oracle.
func TestExpectDeliveryPremise(t *testing.T) {
	for _, seed := range []int64{3873, 5693, 6651, 7682} {
		sc := FromSeed(seed)
		for i, f := range sc.Flows {
			if f.Expect {
				t.Errorf("seed %d: flow %d expects delivery among %s", seed, i, sc)
			}
		}
		if r := Check(sc); r.Failed() {
			t.Errorf("seed %d violates:\n  %s", seed, formatViolations(r.Violations))
		}
	}
}

// scenarioSize counts a scenario's moving parts (links, flows, subflow
// paths, faults) — the quantity the shrinker minimizes.
func scenarioSize(sc Scenario) int {
	n := len(sc.Links) + len(sc.Faults)
	for _, f := range sc.Flows {
		n += 1 + len(f.Paths)
	}
	return n
}

// TestCheckAttachesFlightRecorder pins the dump-on-failure plumbing: every
// Check carries a flight recorder whose contents are the trace tail, are
// deterministic across identical runs, and replay as a valid trace.
func TestCheckAttachesFlightRecorder(t *testing.T) {
	sc := FromSeed(1)
	r1, r2 := Check(sc), Check(sc)
	if r1.Flight == nil || r1.Flight.Len() == 0 {
		t.Fatal("Check produced no flight recording")
	}
	if r1.Flight.Total() != int64(r1.Events) {
		t.Errorf("recorder saw %d events, hash sink saw %d", r1.Flight.Total(), r1.Events)
	}
	a, b := r1.FlightDump(0), r2.FlightDump(0)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("flight dumps differ between identical runs")
	}
	n := 0
	if err := obs.ReadTrace(bytes.NewReader(a), func(obs.Event) error {
		n++
		return nil
	}); err != nil {
		t.Fatalf("flight dump not replayable: %v", err)
	}
	if n != r1.Flight.Len() {
		t.Fatalf("dump has %d events, recorder holds %d", n, r1.Flight.Len())
	}
	// The failure report embeds the dump; a passing test keeps it in its own
	// temporary directory, which the test removes.
	dir := t.TempDir()
	if s := flightSummary(r1, dir); !strings.Contains(s, "flight recorder: last") || !strings.Contains(s, dir) {
		t.Errorf("flight summary malformed: %s", s)
	}
}

// TestSnapshotReplayIdentity runs the replay-equals-live sketch oracle over a
// few generated scenarios: replaying a run's JSONL trace through a fresh
// registry must rebuild the exact live snapshot (counters, sketch-backed
// histogram stats, windowed series).
func TestSnapshotReplayIdentity(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, v := range SnapshotReplayIdentity(FromSeed(seed)) {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
}

// TestTraceDeterminism asserts the replay gate: the same scenario always
// produces a byte-identical probe trace (equal SHA-256, equal event count).
func TestTraceDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := CheckDeterminism(FromSeed(seed))
		if r.Has(InvTraceDetermin) {
			t.Errorf("seed %d: %s", seed, formatViolations(r.Violations))
		}
		if r.Events == 0 {
			t.Errorf("seed %d: empty trace", seed)
		}
	}
}

// TestParallelIdentity asserts the other replay gate: auditing scenarios
// under exp.RunParallel is indistinguishable from auditing them one at a
// time.
func TestParallelIdentity(t *testing.T) {
	scs := make([]Scenario, 8)
	for i := range scs {
		scs[i] = FromSeed(100 + int64(i))
	}
	for _, workers := range []int{2, 4} {
		for _, v := range ParallelIdentity(scs, workers) {
			t.Error(v)
		}
	}
}

// TestReproScenario replays the scenario in $SIMTEST_SCENARIO — the target
// of Scenario.ReproCommand. Without the variable it only checks that the
// hook exists.
func TestReproScenario(t *testing.T) {
	payload := os.Getenv("SIMTEST_SCENARIO")
	if payload == "" {
		t.Skip("set SIMTEST_SCENARIO to a scenario JSON to replay it")
	}
	sc, err := ParseScenario(payload)
	if err != nil {
		t.Fatal(err)
	}
	r := Check(sc)
	t.Logf("replayed %s\ntrace %s (%d events)", sc, r.TraceHash, r.Events)
	if r.Failed() {
		t.Errorf("violations:\n  %s", formatViolations(r.Violations))
	}
}

// TestGeneratorDeterminism pins FromSeed: the corpus must not drift under
// refactors, or every seed-addressed repro in a bug report goes stale.
func TestGeneratorDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := FromSeed(seed), FromSeed(seed)
		if a.JSON() != b.JSON() {
			t.Fatalf("seed %d generated two different scenarios", seed)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("seed %d generates an invalid scenario: %v", seed, err)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := FromSeed(7)
	parsed, err := ParseScenario(sc.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.JSON() != sc.JSON() {
		t.Fatalf("round trip changed the scenario:\n%s\n%s", sc.JSON(), parsed.JSON())
	}
}

func TestValidateRejects(t *testing.T) {
	ok := FromSeed(3)
	cases := map[string]func(s *Scenario){
		"no links":      func(s *Scenario) { s.Links = nil },
		"no flows":      func(s *Scenario) { s.Flows = nil },
		"bad link ref":  func(s *Scenario) { s.Flows[0].Paths[0][0] = 99 },
		"bad fault ref": func(s *Scenario) { s.Faults = []FaultSpec{{Kind: FaultOutage, Link: -1}} },
		"zero duration": func(s *Scenario) { s.DurationMs = 0 },
		"zero rate":     func(s *Scenario) { s.Links[0].RateMbps = 0 },
		"bad reorder":   func(s *Scenario) { s.Links[0].ReorderPct = 150 },
		"bad dup":       func(s *Scenario) { s.Links[0].DupPct = -1 },
		"bad ack":       func(s *Scenario) { s.Flows[0].AckJitterMs = -1 },
		"neg policer":   func(s *Scenario) { s.Links[0].PolicerMbps = -1 },
		"neg shaper":    func(s *Scenario) { s.Links[0].ShaperBurst = -1 },
		"bad handover": func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: FaultHandover, Link: 0, AtMs: 100, DurMs: 0, Cycles: 2, RateMbps: 5}}
		},
		"empty trace": func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: FaultTrace, Link: 0, AtMs: 100, DurMs: 50}}
		},
		"neg trace rate": func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: FaultTrace, Link: 0, AtMs: 100, DurMs: 50, Trace: []float64{5, -1}}}
		},
	}
	for name, mutate := range cases {
		s := clone(ok)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %s", name, s)
		}
	}
}

// TestDropLinkRemap pins the index remapping of the shrinker's link-removal
// candidate.
func TestDropLinkRemap(t *testing.T) {
	sc := Scenario{
		Seed:       1,
		DurationMs: 1000,
		Links:      []LinkSpec{{RateMbps: 5, DelayMs: 5, BufBytes: 9000}, {RateMbps: 6, DelayMs: 6, BufBytes: 9000}, {RateMbps: 7, DelayMs: 7, BufBytes: 9000}},
		Flows:      []FlowSpec{{Proto: string(exp.Reno), Paths: [][]int{{0}, {2}}}},
		Faults: []FaultSpec{
			{Kind: FaultOutage, Link: 1, AtMs: 100, DurMs: 50},
			{Kind: FaultOutage, Link: 2, AtMs: 200, DurMs: 50},
		},
	}
	c, okDrop := dropLink(sc, 1)
	if !okDrop {
		t.Fatal("link 1 is unused but was not dropped")
	}
	if len(c.Links) != 2 || c.Links[1].RateMbps != 7 {
		t.Fatalf("links not remapped: %+v", c.Links)
	}
	if got := c.Flows[0].Paths[1][0]; got != 1 {
		t.Fatalf("path index not remapped: got %d, want 1", got)
	}
	if len(c.Faults) != 1 || c.Faults[0].Link != 1 {
		t.Fatalf("faults not remapped: %+v", c.Faults)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, okDrop = dropLink(sc, 0); okDrop {
		t.Fatal("link 0 is in use but was dropped")
	}
}
