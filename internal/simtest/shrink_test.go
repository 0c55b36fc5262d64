package simtest

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcc/internal/exp"
)

var update = flag.Bool("update", false, "rewrite golden files")

// everyReductionScenario sets something for every reduction shrinkOnce
// knows: a fault, churn with an MMPP and retries, two flows (one multipath,
// one with a start offset, a file, a delivery expectation and an impaired
// ACK path), a link no flow uses, every link impairment and shards.
func everyReductionScenario() Scenario {
	return Scenario{
		Seed:       31,
		DurationMs: 4000,
		Links: []LinkSpec{
			{
				RateMbps: 20, DelayMs: 10, BufBytes: 60000,
				LossPct: 1, JitterMs: 2,
				ReorderPct: 5, ReorderCorr: 0.25, ReorderGap: 7, ReoEarlyMs: 3,
				DupPct:      2,
				PolicerMbps: 30, PolicerBurst: 30000,
				ShaperMbps: 40, ShaperBurst: 40000,
			},
			{RateMbps: 16, DelayMs: 14, BufBytes: 60000, LossPct: 0.5, DupPct: 1, ShaperMbps: 25, ShaperBurst: 20000},
			{RateMbps: 8, DelayMs: 5, BufBytes: 30000, JitterMs: 1},
		},
		Flows: []FlowSpec{
			{Proto: string(exp.MPCCLoss), Paths: [][]int{{0}, {1}}},
			{Proto: string(exp.Reno), Paths: [][]int{{1}}, StartMs: 200, FileKB: 512, Expect: true,
				AckDelayMs: 5, AckJitterMs: 2, AckCompressMs: 4},
		},
		Faults: []FaultSpec{{Kind: FaultOutage, Link: 1, AtMs: 1000, DurMs: 300}},
		Churn: &ChurnScenario{
			Proto: string(exp.MPCCLoss), RatePerSec: 40, HiRatePerSec: 120, DwellMs: 200,
			Alpha: 1.2, SizeMinKB: 12, SizeMaxKB: 240, MaxConns: 5, BudgetKB: 192, PerConnKB: 48,
			MaxRetries: 3, RetryBaseMs: 30,
		},
		Shards: 2,
	}
}

// TestShrinkCandidateOrder pins every candidate shrinkOnce tries, in order,
// on a scenario with every reduction available: structural deletions first,
// then each impairment cleared in turn (loss, jitter, reordering,
// duplication, policer, shaper), then the rest. A refactor of the shrinker
// must leave the list as it is. Regenerate with -update after a deliberate
// change and read the diff.
func TestShrinkCandidateOrder(t *testing.T) {
	var got strings.Builder
	shrinkOnce(everyReductionScenario(), InvQueueBound, false, func(c Scenario) bool {
		got.WriteString(c.JSON())
		got.WriteByte('\n')
		return false
	})
	golden := filepath.Join("testdata", "shrink_candidates.jsonl.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("candidate %d differs (%d tried, %d pinned):\ngot:  %s\nwant: %s", i, len(g)-1, len(w)-1, gl, wl)
		}
	}
}
