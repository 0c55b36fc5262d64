package simtest

import (
	"testing"

	"mpcc/internal/exp"
	"mpcc/internal/sim"
)

// churnScenario is a hand-built scenario mixing one static MPCC flow with an
// open-loop session workload over two links. The arrival rate is high enough
// against the tiny admission caps that overload machinery (rejects, retries)
// demonstrably engages, making the session-ledger and server-budget oracles
// non-vacuous.
func churnScenario() Scenario {
	return Scenario{
		Seed:       21,
		DurationMs: 3000,
		Links: []LinkSpec{
			{RateMbps: 20, DelayMs: 10, BufBytes: 60000},
			{RateMbps: 16, DelayMs: 14, BufBytes: 60000},
		},
		Flows: []FlowSpec{{Proto: string(exp.MPCCLoss), Paths: [][]int{{0}, {1}}}},
		Churn: &ChurnScenario{
			Proto:       string(exp.MPCCLoss),
			RatePerSec:  60,
			Alpha:       1.2,
			SizeMinKB:   12,
			SizeMaxKB:   240,
			MaxConns:    5,
			BudgetKB:    192,
			PerConnKB:   48,
			MaxRetries:  3,
			RetryBaseMs: 30,
		},
	}
}

// TestChurnScenarioPassesOracle audits the hand-built churn scenario under
// the full oracle and proves the run actually churned: sessions arrived,
// completed, and were shed under pressure.
func TestChurnScenarioPassesOracle(t *testing.T) {
	r := Check(churnScenario())
	if r.Failed() {
		t.Fatalf("churn scenario violates invariants:\n  %s", formatViolations(r.Violations))
	}
	st := r.Result.Churn
	if st == nil {
		t.Fatal("churn run produced no churn stats")
	}
	if st.Arrivals == 0 || st.Completed == 0 {
		t.Fatalf("degenerate churn run: %+v", st)
	}
	if st.Rejected == 0 || st.Retried == 0 {
		t.Fatalf("admission control never engaged: rejected=%d retried=%d", st.Rejected, st.Retried)
	}
	if st.LeakChecks == 0 {
		t.Fatal("no post-close pool audits ran")
	}
}

// TestCloseUnderBackoffScenarios pins two generated scenarios (seeds 238 and
// 274 of the main sweep, as repro lines so generator drift cannot unpin
// them) on which the conn-leak audit used to fire: sessions opened inside a
// flap or outage window send under a backed-off RTO, reordering detection
// declares some of those packets lost, and each record stayed behind its own
// retransmission timer for longer than the drain window after the session
// closed. A record carries its deadline now, not a timer, so it goes home at
// teardown and the fixed drain window covers the network alone.
func TestCloseUnderBackoffScenarios(t *testing.T) {
	for _, line := range []string{
		`{"seed":238,"dur":3096.4772364925566,"links":[{"rate":21.252111673899797,"delay":29.871101639534483,"buf":53092}],"flows":[{"proto":"bbr","paths":[[0]],"start":571.3930233663286}],"faults":[{"kind":"trace","link":0,"at":1205.8918836737764,"dur":82.86176606618831,"trace":[17.59904617513596,7.473901634434359,17.663662309030986,11.484771562531323,8.990978117841314,10.442401567205373]},{"kind":"flaps","link":0,"at":911.7420201230796,"dur":156.31338635573232,"n":3,"up":107.46010029354328}],"churn":{"proto":"mpcc-loss","rate":34.248401733894326,"alpha":1.355279942771415,"minKB":18,"maxKB":522,"conns":12,"budgetKB":190,"rcvKB":95,"retries":1,"retryMs":34.44595815736996}}`,
		`{"seed":274,"dur":3278.4936954416235,"links":[{"rate":21.3082497208823,"delay":27.756938600486343,"buf":132654,"reo":24.39220861045782,"reoCorr":0.03590110324639809,"reoGap":28,"reoEarly":12.781674745653728},{"rate":5.579558739639841,"delay":12.738464853768026,"buf":14520,"polRate":4.725163051428383,"polBurst":9423},{"rate":28.562052288144518,"delay":16.76396655842135,"buf":40356,"reo":4.418767444934813,"reoCorr":0.17363321914426183,"reoEarly":5.483370946656515}],"flows":[{"proto":"mpcc-latency","paths":[[0,1]],"ackJitter":0.743698867398428},{"proto":"olia","paths":[[0],[1]]}],"faults":[{"kind":"outage","link":1,"at":1256.609867202238,"dur":383.53094938287524}],"churn":{"proto":"mpcc-latency","rate":25.146830472933566,"hiRate":96.98826071644575,"dwell":110.78464829152047,"alpha":1.5121943665090105,"minKB":13,"maxKB":260,"conns":11,"budgetKB":230,"rcvKB":46,"retries":1,"retryMs":45.452609581915084}}`,
	} {
		sc, err := ParseScenario(line)
		if err != nil {
			t.Fatal(err)
		}
		r := Check(sc)
		if r.Failed() {
			t.Errorf("seed %d violates invariants:\n  %s", sc.Seed, formatViolations(r.Violations))
		}
		if r.Result.Churn.LeakChecks == 0 {
			t.Errorf("seed %d: no post-close pool audits ran", sc.Seed)
		}
	}
}

// churnSeeds returns up to n generator seeds whose scenarios carry a churn
// workload, scanning forward from base.
func churnSeeds(base int64, n int) []int64 {
	var out []int64
	for seed := base; len(out) < n && seed < base+40*int64(n); seed++ {
		if FromSeed(seed).Churn != nil {
			out = append(out, seed)
		}
	}
	return out
}

// TestGeneratedChurnScenariosPassOracle sweeps generated scenarios filtered
// to the churn dimension through the full oracle — the churn slice of the
// main fuzz loop, concentrated so CI always covers it.
func TestGeneratedChurnScenariosPassOracle(t *testing.T) {
	seeds := churnSeeds(baseSeed(t), scenarioBudget(t, 20))
	if len(seeds) == 0 {
		t.Fatal("no churn scenarios in seed range; generator draw broken?")
	}
	perSeed := make([]int, len(seeds))
	failed := sweep(seeds, func(i int, r *Report) { perSeed[i] = r.Result.Churn.Arrivals })
	reportFailures(t, failed)
	arrivals := 0
	for _, n := range perSeed {
		arrivals += n
	}
	if arrivals == 0 {
		t.Fatalf("%d churn scenarios produced zero arrivals", len(seeds))
	}
	t.Logf("audited %d churn scenarios, %d session arrivals", len(seeds), arrivals)
}

// TestChurnTraceDeterminism pins replay and shard identity on a churn run:
// same scenario ⇒ byte-identical trace, and (since churn forces the legacy
// engine) every shard count must agree too.
func TestChurnTraceDeterminism(t *testing.T) {
	sc := churnScenario()
	if r := CheckDeterminism(sc); r.Has(InvTraceDetermin) {
		t.Fatalf("churn trace not deterministic:\n  %s", formatViolations(r.Violations))
	}
	if r := ShardIdentity(sc, 0, 1, 2, 4); r.Failed() {
		t.Fatalf("churn run diverges across shard counts:\n  %s", formatViolations(r.Violations))
	}
}

// TestChurnLedgerOracleFires proves the three churn invariants are live code:
// hand-broken stats must each surface as the right violation.
func TestChurnLedgerOracleFires(t *testing.T) {
	o := NewOracle()
	o.finalizeChurn(&exp.ChurnStats{
		Arrivals: 10, Accepted: 5, Abandoned: 3, // 5+3 ≠ 10
		Completed: 2, Aborted: 1, Active: 1, // 2+1+1 ≠ 5
		LeakChecks: 4, Leaks: 1,
		Servers: []exp.ServerChurnStats{{
			Name: "srv0", MaxConns: 2, PeakActive: 3, BudgetBytes: 1000, PeakBytes: 2000,
		}},
	})
	got := make(map[string]int)
	for _, v := range o.Violations() {
		got[v.Invariant]++
	}
	if got[InvSessionLedger] != 2 {
		t.Errorf("session-ledger violations = %d, want 2", got[InvSessionLedger])
	}
	if got[InvServerBudget] != 2 {
		t.Errorf("server-budget violations = %d, want 2", got[InvServerBudget])
	}
	if got[InvConnLeak] != 1 {
		t.Errorf("conn-leak violations = %d, want 1", got[InvConnLeak])
	}

	// And a balanced ledger must stay silent.
	clean := NewOracle()
	clean.finalizeChurn(&exp.ChurnStats{
		Arrivals: 10, Accepted: 7, Abandoned: 3,
		Completed: 5, Aborted: 1, Active: 1,
		LeakChecks: 4,
		Servers:    []exp.ServerChurnStats{{Name: "srv0", MaxConns: 2, PeakActive: 2}},
	})
	if vs := clean.Violations(); len(vs) != 0 {
		t.Errorf("balanced ledger reported violations:\n  %s", formatViolations(vs))
	}
}

// TestChurnShrinkerDropsChurn pins the shrinker's churn reductions: a
// queue-bound violation caused by the static bulk flow must shrink to a
// reproducer with the whole churn subsystem removed.
func TestChurnShrinkerDropsChurn(t *testing.T) {
	sc := churnScenario()
	opts := Options{BufferBound: map[string]int{"l0": 1500}}
	if !CheckOpts(sc, opts).Has(InvQueueBound) {
		t.Fatal("injected bound not violated; cannot exercise the shrinker")
	}
	sh := Shrink(sc, InvQueueBound, opts)
	if !sh.Report.Has(InvQueueBound) {
		t.Fatalf("shrunk scenario no longer violates %s: %s", InvQueueBound, sh.Scenario)
	}
	if sh.Scenario.Churn != nil {
		t.Fatalf("shrinker kept the churn dimension on a static-flow failure: %s", sh.Scenario)
	}
}

// TestChurnScenarioJSONRoundTrip covers the churn dimension of the repro
// payload: encode → parse → encode must be the identity, for both the
// hand-built scenario and a generated one.
func TestChurnScenarioJSONRoundTrip(t *testing.T) {
	cases := []Scenario{churnScenario()}
	if seeds := churnSeeds(1, 1); len(seeds) > 0 {
		cases = append(cases, FromSeed(seeds[0]))
	}
	for _, sc := range cases {
		parsed, err := ParseScenario(sc.JSON())
		if err != nil {
			t.Fatal(err)
		}
		if parsed.JSON() != sc.JSON() {
			t.Fatalf("round trip changed the scenario:\n%s\n%s", sc.JSON(), parsed.JSON())
		}
		if parsed.Churn == nil {
			t.Fatal("churn dimension lost in round trip")
		}
	}
}

// TestChurnGracefulDegradation is the overload-survival acceptance oracle at
// simtest scale: on the server-farm experiment, goodput at 2× overload must
// hold at least 80% of goodput at the saturation knee.
func TestChurnGracefulDegradation(t *testing.T) {
	cfg := exp.Config{Duration: 4 * sim.Second, Reps: 1, Seed: 42}
	knee := exp.Run(exp.ChurnSpecAt(cfg, 1.0)).Churn
	over := exp.Run(exp.ChurnSpecAt(cfg, 2.0)).Churn
	if knee.CompletedBytes == 0 {
		t.Fatal("no completed bytes at the knee")
	}
	ratio := float64(over.CompletedBytes) / float64(knee.CompletedBytes)
	if ratio < 0.8 {
		t.Fatalf("goodput collapsed past the knee: 2x overload moved %.0f%% of knee bytes (%d vs %d)",
			ratio*100, over.CompletedBytes, knee.CompletedBytes)
	}
	t.Logf("2x overload holds %.0f%% of knee goodput (%d vs %d bytes)",
		ratio*100, over.CompletedBytes, knee.CompletedBytes)
}

// TestChurnSoak is the `make soak` entry point: a long randomized churn sweep
// under the full oracle, sized by SIMTEST_N (default small enough for tier-1
// CI). Every scenario is forced onto the churn dimension; failures shrink and
// print repro commands like the main fuzz loop.
func TestChurnSoak(t *testing.T) {
	n := scenarioBudget(t, 10)
	seeds := churnSeeds(baseSeed(t)+1000, n)
	if len(seeds) == 0 {
		t.Fatal("no churn scenarios in soak seed range")
	}
	if failed := sweep(seeds, nil); len(failed) > 0 {
		reportFailures(t, failed)
	} else {
		t.Logf("soaked %d churn scenarios, 0 violations", len(seeds))
	}
}
