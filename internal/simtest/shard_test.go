package simtest

import (
	"strings"
	"testing"
)

// shardScenario is a hand-built two-component workload: two independent
// links, each carrying its own single-path flow, plus a rate fault and a
// policer so sharded fault scheduling and contract oracles both exercise.
func shardScenario() Scenario {
	return Scenario{
		Seed:       41,
		DurationMs: 1500,
		Links: []LinkSpec{
			{RateMbps: 8, DelayMs: 12, BufBytes: 16000},
			{RateMbps: 12, DelayMs: 8, BufBytes: 20000, PolicerMbps: 6, PolicerBurst: 9000},
		},
		Flows: []FlowSpec{
			{Proto: "mpcc-loss", Paths: [][]int{{0}}},
			{Proto: "mpcc-loss", Paths: [][]int{{1}}},
		},
		Faults: []FaultSpec{
			{Kind: FaultRate, Link: 0, AtMs: 400, DurMs: 300, RateMbps: 3},
		},
	}
}

// singleComponentScenario keeps every flow on one shared link, so its
// partition is a single component and the sharded engine must reproduce
// the legacy engine byte for byte.
func singleComponentScenario() Scenario {
	return Scenario{
		Seed:       43,
		DurationMs: 1500,
		Links:      []LinkSpec{{RateMbps: 10, DelayMs: 10, BufBytes: 18000}},
		Flows: []FlowSpec{
			{Proto: "mpcc-loss", Paths: [][]int{{0}}},
			{Proto: "cubic", Paths: [][]int{{0}}},
		},
	}
}

// TestShardCountIdentityRandom sweeps generated scenarios through the
// shard-identity oracle: shards 1, 2 and 4 must produce identical traces
// and snapshots on every scenario the generator can emit.
func TestShardCountIdentityRandom(t *testing.T) {
	n := scenarioBudget(t, 30)
	for seed := int64(1); seed <= int64(n); seed++ {
		sc := FromSeed(seed)
		r := ShardIdentity(sc, 1, 2, 4)
		if r.Failed() {
			t.Fatalf("seed %d violates %v\nscenario: %+v\nrepro: %s\nfirst: %s",
				seed, r.Violations[0].Invariant, sc, sc.ReproCommand(), r.Violations[0].Detail)
		}
	}
}

// TestShardIdentityMultiComponent pins the crafted two-component scenario:
// identical output at shards 1/2/4 and a clean bill from the full oracle,
// including the policer contract and the sharded rate fault.
func TestShardIdentityMultiComponent(t *testing.T) {
	r := ShardIdentity(shardScenario(), 1, 2, 4)
	if r.Failed() {
		t.Fatalf("two-component scenario failed: %v\nfirst: %s", r.Violations[0].Invariant, r.Violations[0].Detail)
	}
	if r.Events == 0 {
		t.Fatal("no probe events recorded")
	}
}

// TestShardedMatchesLegacySingleComponent: with one interaction component
// the sharded engine is the legacy engine — same seed, same build order,
// same event stream — so the trace hashes must agree exactly.
func TestShardedMatchesLegacySingleComponent(t *testing.T) {
	sc := singleComponentScenario()
	legacy := Check(sc)
	if legacy.Failed() {
		t.Fatalf("legacy run failed: %v", legacy.Violations[0].Invariant)
	}
	for _, shards := range []int{1, 2, 4} {
		s := sc
		s.Shards = shards
		r := Check(s)
		if r.Failed() {
			t.Fatalf("shards=%d run failed: %v", shards, r.Violations[0].Invariant)
		}
		if r.TraceHash != legacy.TraceHash || r.Events != legacy.Events {
			t.Fatalf("shards=%d trace %s (%d events) diverges from legacy %s (%d events)",
				shards, r.TraceHash[:12], r.Events, legacy.TraceHash[:12], legacy.Events)
		}
	}
}

// TestShardsInReproCommand: the shard dimension rides along in the
// one-line repro, so a sharding-dependent failure replays sharded.
func TestShardsInReproCommand(t *testing.T) {
	sc := shardScenario()
	sc.Shards = 4
	cmd := sc.ReproCommand()
	if !strings.Contains(cmd, `"shards":4`) {
		t.Fatalf("repro command lost the shard count: %s", cmd)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("sharded scenario does not validate: %v", err)
	}
	sc.Shards = -1
	if err := sc.Validate(); err == nil {
		t.Fatal("negative shard count must not validate")
	}
}

// TestShrinkerShardReduction: a failure that reproduces unsharded sheds
// the shard dimension; one that needs sharding keeps it through every
// accepted reduction.
func TestShrinkerShardReduction(t *testing.T) {
	sc := shardScenario()
	sc.Shards = 2

	// Failure independent of sharding: the reduction to Shards=0 applies.
	reduced, ok := shrinkOnce(sc, InvQueueBound, false, func(c Scenario) bool { return true })
	if !ok {
		t.Fatal("shrinkOnce found no reduction")
	}
	for ok && reduced.Shards > 0 {
		reduced, ok = shrinkOnce(reduced, InvQueueBound, false, func(c Scenario) bool { return true })
	}
	if reduced.Shards != 0 {
		t.Fatalf("shard-independent failure kept Shards=%d", reduced.Shards)
	}

	// Failure only under sharding: every accepted reduction keeps it.
	cur, steps := sc, 0
	for {
		next, ok := shrinkOnce(cur, InvQueueBound, false, func(c Scenario) bool { return c.Shards > 0 })
		if !ok {
			break
		}
		if next.Shards == 0 {
			t.Fatalf("shrinker accepted a reduction that dropped the needed shard dimension: %+v", next)
		}
		cur = next
		if steps++; steps > 100 {
			t.Fatal("shrinker failed to converge")
		}
	}
	if cur.Shards != 2 {
		t.Fatalf("final scenario lost Shards: %+v", cur)
	}
	if !strings.Contains(cur.ReproCommand(), `"shards":2`) {
		t.Fatalf("repro of shard-dependent failure lost shards: %s", cur.ReproCommand())
	}
}
