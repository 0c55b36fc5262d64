package simtest

// Tests for the adversarial path model inside the simulation-testing
// harness: policed, shaped, handover and trace-replay links each run under
// the full oracle, and each new invariant is proven live by an injected
// violation (the same methodology as the buffer-bound and progress-stall
// tests).

import (
	"strings"
	"testing"

	"mpcc/internal/exp"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

// policedScenario drives a bulk MPCC flow into an 8 Mbps policer on a
// 20 Mbps link, so the policer — not drop-tail — is the binding constraint
// and the run is guaranteed to record policer drops.
func policedScenario() Scenario {
	return Scenario{
		Seed:       21,
		DurationMs: 2500,
		Links: []LinkSpec{{
			RateMbps: 20, DelayMs: 10, BufBytes: 300000,
			PolicerMbps: 8, PolicerBurst: 12000,
		}},
		Flows: []FlowSpec{{Proto: string(exp.MPCCLoss), Paths: [][]int{{0}}}},
	}
}

// TestPolicedScenarioPassesOracles runs a policed link through the full
// oracle — including the automatically armed policer-conformance envelope —
// and requires the run to have actually policed something, so the check is
// demonstrably non-vacuous.
func TestPolicedScenarioPassesOracles(t *testing.T) {
	sc := policedScenario()
	if sc.ReorderOnly() {
		t.Fatal("policed scenario misclassified reorder-only; a policer destroys packets")
	}
	r := Check(sc)
	if r.Failed() {
		t.Fatalf("policed scenario violates invariants:\n  %s", formatViolations(r.Violations))
	}
	st := r.Result.Net.Link("l0").Stats()
	if st.DropsPolicer == 0 {
		t.Fatal("policer dropped nothing; the scenario is not testing policing")
	}
	if st.PolicerPassedBytes == 0 {
		t.Fatal("policer passed nothing; the flow never started")
	}
	t.Logf("policer passed %d bytes, dropped %d packets", st.PolicerPassedBytes, st.DropsPolicer)
}

// TestPolicerEnvelopeOracleFires proves the conformance check end to end:
// pinning the envelope below what the policer really passed must surface an
// InvPolicerEnv violation.
func TestPolicerEnvelopeOracleFires(t *testing.T) {
	sc := policedScenario()
	o := NewOracle()
	o.OverridePolicerEnvelope("l0", 1)
	bus := obs.NewBus(o)
	res := exp.Run(sc.buildSpec(bus, o))
	found := false
	for _, v := range o.Finalize(res) {
		if v.Invariant == InvPolicerEnv {
			found = true
		}
	}
	if !found {
		t.Fatal("1-byte policer envelope not violated; the conformance oracle is dead code")
	}
}

// TestShapedScenarioDefersNotDrops runs the same overload against a shaper:
// the contract must show up as deferred serializations, never as policer
// loss, and the full oracle (conservation, queue bound) must hold with the
// shaper pushing serialization starts around.
func TestShapedScenarioDefersNotDrops(t *testing.T) {
	sc := Scenario{
		Seed:       22,
		DurationMs: 2500,
		Links: []LinkSpec{{
			RateMbps: 20, DelayMs: 10, BufBytes: 300000,
			ShaperMbps: 8, ShaperBurst: 12000,
		}},
		Flows: []FlowSpec{{Proto: string(exp.MPCCLoss), Paths: [][]int{{0}}}},
	}
	if sc.ReorderOnly() {
		t.Fatal("shaped scenario misclassified reorder-only; deferral can break the stall bound")
	}
	r := Check(sc)
	if r.Failed() {
		t.Fatalf("shaped scenario violates invariants:\n  %s", formatViolations(r.Violations))
	}
	st := r.Result.Net.Link("l0").Stats()
	if st.ShaperDelayed == 0 {
		t.Fatal("shaper deferred nothing; the scenario is not testing shaping")
	}
	if st.DropsPolicer != 0 {
		t.Fatalf("shaper recorded %d policer drops; a shaper must defer, not drop", st.DropsPolicer)
	}
}

// TestHandoverScenarioPassesOracles runs an LEO handover fault under the
// full oracle: every scheduled step must fire exactly on schedule (checked
// live by the armed handover oracle) and the link must count all of them.
func TestHandoverScenarioPassesOracles(t *testing.T) {
	sc := Scenario{
		Seed:       23,
		DurationMs: 3000,
		Links:      []LinkSpec{{RateMbps: 20, DelayMs: 15, BufBytes: 300000}},
		Flows:      []FlowSpec{{Proto: string(exp.MPCCLatency), Paths: [][]int{{0}}}},
		Faults: []FaultSpec{{
			Kind: FaultHandover, Link: 0, AtMs: 500, DurMs: 250,
			Cycles: 4, RateMbps: 10, DelayMs: 25,
		}},
	}
	r := Check(sc)
	if r.Failed() {
		t.Fatalf("handover scenario violates invariants:\n  %s", formatViolations(r.Violations))
	}
	if got := r.Result.Net.Link("l0").Stats().Handovers; got != 4 {
		t.Fatalf("link executed %d handovers, want 4", got)
	}
}

// TestHandoverScheduleOracleFires proves both halves of the schedule check:
// a handover arriving off-schedule is a live violation, and a scheduled
// handover that was due by the end of the run and never fired is a Finalize
// violation — while one due only after the run ended is not.
func TestHandoverScheduleOracleFires(t *testing.T) {
	o := NewOracle()
	o.expectHandovers("l0", []sim.Time{sim.Second, 2 * sim.Second})
	o.Emit(obs.Event{Kind: obs.KindHandover, At: sim.Second + sim.Millisecond, Link: "l0"})
	live := false
	for _, v := range o.Violations() {
		if v.Invariant == InvHandoverSched {
			live = true
		}
	}
	if !live {
		t.Fatal("off-schedule handover not reported live")
	}

	// A run that ended at 2 s: the handover due at 1 s was missed, the one
	// due at 3 s was never owed.
	eng := sim.NewEngine(1)
	net := topo.NewNet(eng)
	net.AddDefaultLink("l0")
	eng.Run(2 * sim.Second)
	o2 := NewOracle()
	o2.expectHandovers("l0", []sim.Time{sim.Second, 3 * sim.Second})
	var leftover []Violation
	for _, v := range o2.Finalize(&exp.Result{Net: net}) {
		if v.Invariant == InvHandoverSched {
			leftover = append(leftover, v)
		}
	}
	if len(leftover) != 1 || !strings.Contains(leftover[0].Detail, "1 scheduled handovers never fired") {
		t.Fatalf("want exactly the handover due at 1s reported at Finalize, got %v", leftover)
	}
}

// TestTraceScenarioPassesOracles runs a trace-replay fault — the only
// rate-rewriting fault on its link, so the per-segment delivery envelope is
// armed — under the full oracle.
func TestTraceScenarioPassesOracles(t *testing.T) {
	sc := Scenario{
		Seed:       24,
		DurationMs: 3000,
		Links:      []LinkSpec{{RateMbps: 20, DelayMs: 10, BufBytes: 60000}},
		Flows:      []FlowSpec{{Proto: string(exp.MPCCLoss), Paths: [][]int{{0}}}},
		Faults: []FaultSpec{{
			Kind: FaultTrace, Link: 0, AtMs: 400, DurMs: 200,
			Trace: []float64{8, 14, 5, 18},
		}},
	}
	if !sc.soleRateFault(0) {
		t.Fatal("trace fault not recognized as the sole rate fault; envelope would not arm")
	}
	r := Check(sc)
	if r.Failed() {
		t.Fatalf("trace scenario violates invariants:\n  %s", formatViolations(r.Violations))
	}
}

// TestTraceEnvelopeOracleFires proves the delivery envelope catches a link
// that outruns its trace: the audit is armed with a ~0.1 Mbps trace while
// the link actually serializes a bulk flow at 20 Mbps (no trace applied), so
// every segment must blow its budget.
func TestTraceEnvelopeOracleFires(t *testing.T) {
	sc := Scenario{
		Seed:       25,
		DurationMs: 2000,
		Links:      []LinkSpec{{RateMbps: 20, DelayMs: 10, BufBytes: 60000}},
		Flows:      []FlowSpec{{Proto: string(exp.Cubic), Paths: [][]int{{0}}}},
	}
	o := NewOracle()
	bus := obs.NewBus(o)
	spec := sc.buildSpec(bus, o)
	inner := spec.Tweak
	spec.Tweak = func(n *topo.Net) {
		inner(n)
		armTraceEnvelope(n.Eng, o, n.Link("l0"), "l0",
			sim.FromSeconds(0.5), sim.FromSeconds(0.2), []float64{0.1, 0.1}, 1500)
	}
	res := exp.Run(spec)
	found := false
	for _, v := range o.Finalize(res) {
		if v.Invariant == InvTraceEnv {
			found = true
		}
	}
	if !found {
		t.Fatal("0.1 Mbps trace envelope not violated by a 20 Mbps link; the audit is dead code")
	}
}

// TestShrinkerZerosTokenBuckets pins the new parameter reductions: a
// failure that persists without the token buckets must come back with both
// contracts stripped.
func TestShrinkerZerosTokenBuckets(t *testing.T) {
	// Both contracts sit above the 8 Mbps wire rate, so they are inert: the
	// drop-tail queue fills regardless, the injected buffer bound fails with
	// or without them, and the shrinker should strip both.
	sc := Scenario{
		Seed:       26,
		DurationMs: 2000,
		Links: []LinkSpec{{
			RateMbps: 8, DelayMs: 10, BufBytes: 30000,
			PolicerMbps: 20, PolicerBurst: 30000,
			ShaperMbps: 25, ShaperBurst: 30000,
		}},
		Flows: []FlowSpec{{Proto: string(exp.MPCCLoss), Paths: [][]int{{0}}}},
	}
	opts := Options{BufferBound: map[string]int{"l0": 1500}}
	if !CheckOpts(sc, opts).Has(InvQueueBound) {
		t.Fatal("injected bound not caught; cannot exercise the shrinker")
	}
	sh := Shrink(sc, InvQueueBound, opts)
	l := sh.Scenario.Links[0]
	if l.policed() || l.shaped() {
		t.Fatalf("shrinker kept token buckets: %s", sh.Scenario)
	}
}
