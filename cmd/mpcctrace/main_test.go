package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mpcc/internal/exp"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

// liveTrace runs a small probed simulation twice (two seeds) into one shared
// JSONL writer — the same shape mpccbench -trace produces — and returns the
// trace bytes plus the per-run registry snapshots.
func liveTrace(t *testing.T) ([]byte, []*obs.Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	var snaps []*obs.Snapshot
	for _, seed := range []int64{7, 8} {
		res := exp.Run(exp.Spec{
			Seed: seed, Duration: 2 * sim.Second, Warmup: sim.Second,
			Topo: topo.Fig3c(), Proto: exp.MPCCLoss, Probes: obs.NewBus(jw),
		})
		snaps = append(snaps, res.Obs)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snaps
}

func runTool(t *testing.T, args []string, stdin []byte) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, bytes.NewReader(stdin), &out)
	return out.String(), err
}

func TestSummaryMatchesLiveSnapshots(t *testing.T) {
	trace, snaps := liveTrace(t)
	for runIdx, snap := range snaps {
		out, err := runTool(t, []string{"summary", "-run", strconv.Itoa(runIdx)}, trace)
		if err != nil {
			t.Fatalf("summary -run %d: %v", runIdx, err)
		}
		// Every live counter must be reported with its exact value (the
		// engine gauges never enter the trace and are not expected here).
		for _, name := range snap.SortedCounterNames() {
			want := fmt.Sprintf("%-24s %g", name, snap.Counters[name])
			if !strings.Contains(out, want) {
				t.Errorf("run %d summary missing %q\noutput:\n%s", runIdx, want, out)
			}
		}
		qd := snap.Histograms["queue_depth_bytes"]
		for _, frag := range []string{
			"queue_depth_bytes",
			fmt.Sprintf("count=%d", qd.Count),
			fmt.Sprintf("p50=%g", qd.P50),
			fmt.Sprintf("p99=%g", qd.P99),
			fmt.Sprintf("p999=%g", qd.P999),
		} {
			if !strings.Contains(out, frag) {
				t.Errorf("run %d summary missing %q for queue_depth_bytes\noutput:\n%s", runIdx, frag, out)
			}
		}
	}
}

func TestSummaryAllRuns(t *testing.T) {
	trace, snaps := liveTrace(t)
	out, err := runTool(t, []string{"summary"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "run 0: seed=7") || !strings.Contains(out, "run 1: seed=8") {
		t.Fatalf("multi-run summary missing run headers:\n%s", out)
	}
	if len(snaps) != 2 {
		t.Fatalf("expected 2 snapshots, got %d", len(snaps))
	}
}

// TestSummaryHostilePathBreakdown traces a run over reordering links with a
// compressed ACK channel and checks summary surfaces the hostile-path
// breakdown section.
func TestSummaryHostilePathBreakdown(t *testing.T) {
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	exp.Run(exp.Spec{
		Seed: 7, Duration: 2 * sim.Second, Warmup: sim.Second,
		Topo: topo.Fig3b(), Probes: obs.NewBus(jw),
		Tweak: func(n *topo.Net) {
			for _, name := range n.LinkNames() {
				n.Link(name).SetReorder(&netem.Reorder{Prob: 0.2, MaxEarly: 10 * sim.Millisecond})
			}
		},
		Flows: []exp.FlowSpec{{
			Name: "mp", Proto: exp.MPCCLoss,
			Paths:     [][]string{{"link1"}, {"link2"}},
			PathTweak: func(p *netem.Path) { p.SetAckCompression(2 * sim.Millisecond) },
		}},
	})
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := runTool(t, []string{"summary"}, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"hostile path:", "reorders=", "ack-compressions=", "spurious-retx="} {
		if !strings.Contains(out, frag) {
			t.Errorf("impaired summary missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "reorders=0 ") {
		t.Errorf("impaired run recorded zero reorders:\n%s", out)
	}
}

// TestSummaryContractsBreakdown traces a run whose links carry the
// adversarial path contracts — a policer, a shaper, and a handover schedule
// — and checks summary surfaces the contracts line with live counts.
func TestSummaryContractsBreakdown(t *testing.T) {
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	exp.Run(exp.Spec{
		Seed: 9, Duration: 2 * sim.Second, Warmup: sim.Second,
		Topo: topo.Fig3b(), Proto: exp.MPCCLoss, Probes: obs.NewBus(jw),
		Tweak: func(n *topo.Net) {
			n.Link("link1").SetPolicer(3e6, 9000)
			n.Link("link2").SetShaper(5e6, 9000)
			n.Link("link2").ScheduleHandovers(
				[]netem.HandoverStep{
					{RateBps: 6e6, Delay: 25 * sim.Millisecond},
					{RateBps: 10e6, Delay: 15 * sim.Millisecond},
				},
				500*sim.Millisecond, 600*sim.Millisecond, 2)
		},
	})
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := runTool(t, []string{"summary"}, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"contracts:", "policer-drops=", "shaper-delays=", "handovers=2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("contract summary missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "policer-drops=0 ") {
		t.Errorf("policed run recorded zero policer drops:\n%s", out)
	}
}

// TestSummarySessionsBreakdown traces an overloaded churn run and checks
// summary surfaces the session ledger and FCT percentiles, and that a run
// with no session workload omits the section entirely.
func TestSummarySessionsBreakdown(t *testing.T) {
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	spec := exp.ChurnSpecAt(exp.Config{Duration: 3 * sim.Second, Reps: 1, Seed: 42}, 2.0)
	spec.Probes = obs.NewBus(jw)
	res := exp.Run(spec)
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := runTool(t, []string{"summary"}, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Churn
	for _, frag := range []string{
		"sessions:",
		fmt.Sprintf("accepted=%d", st.Accepted),
		fmt.Sprintf("rejected=%d", st.Rejected),
		fmt.Sprintf("retried=%d", st.Retried),
		fmt.Sprintf("completed=%d", st.Completed),
		fmt.Sprintf("aborted=%d", st.Aborted),
		fmt.Sprintf("active-end=%d", st.Active),
		fmt.Sprintf("peak=%d", st.PeakActive),
		fmt.Sprintf("fct: count=%d", st.Completed),
		"p50=", "p99=", "p999=",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("churn summary missing %q:\n%s", frag, out)
		}
	}
	if st.Rejected == 0 {
		t.Error("overloaded trace run shed nothing; breakdown untested")
	}

	// A session-free trace must not grow a sessions section.
	plain, _ := liveTrace(t)
	out, err = runTool(t, []string{"summary"}, plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "sessions:") {
		t.Errorf("session-free summary grew a sessions section:\n%s", out)
	}
}

func TestFilterRoundTripsBytes(t *testing.T) {
	trace, _ := liveTrace(t)
	// A no-op filter must re-emit the trace byte-identically.
	out, err := runTool(t, []string{"filter"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(trace) {
		t.Fatal("unfiltered output differs from input trace")
	}

	// Kind filtering keeps only matching events.
	out, err = runTool(t, []string{"filter", "-kind", "drop"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, `"kind":"drop"`) {
			t.Fatalf("non-drop line in filtered output: %s", line)
		}
	}

	// Flow + subflow filtering compose.
	out, err = runTool(t, []string{"filter", "-flow", "mp", "-sf", "0"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, `"flow":"mp"`) || !strings.Contains(line, `"sf":0`) {
			t.Fatalf("filter leaked line: %s", line)
		}
	}

	// An impossible filter errors rather than writing an empty file silently.
	if _, err := runTool(t, []string{"filter", "-flow", "nope"}, trace); err == nil {
		t.Fatal("empty filter result did not error")
	}
	if _, err := runTool(t, []string{"filter", "-kind", "bogus"}, trace); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestCSVExport(t *testing.T) {
	trace, _ := liveTrace(t)
	out, err := runTool(t, []string{"csv", "-kind", "queue-depth", "-bucket", "500ms"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "t_seconds,link1,link2" {
		t.Fatalf("csv header = %q", lines[0])
	}
	// 2 s horizon at 500 ms buckets → 5 data rows (a sample lands exactly
	// at t=2.0 s), first at t=0.
	if len(lines) != 6 {
		t.Fatalf("csv rows = %d, want 6:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "0.000,") {
		t.Fatalf("first row = %q", lines[1])
	}

	// Level kinds export per-subflow series keyed flow/sfN.
	out, err = runTool(t, []string{"csv", "-kind", "mi-decision"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	header := strings.Split(strings.TrimSpace(out), "\n")[0]
	if !strings.Contains(header, "mp/sf0") || !strings.Contains(header, "mp/sf1") {
		t.Fatalf("mi-decision header missing subflow series: %q", header)
	}

	// Run selection: run 1 exists, run 2 does not.
	if _, err := runTool(t, []string{"csv", "-kind", "drop", "-run", "1"}, trace); err != nil {
		t.Fatalf("run 1 export failed: %v", err)
	}
	if _, err := runTool(t, []string{"csv", "-kind", "drop", "-run", "2"}, trace); err == nil {
		t.Fatal("nonexistent run accepted")
	}
	if _, err := runTool(t, []string{"csv"}, trace); err == nil {
		t.Fatal("missing -kind accepted")
	}
}

// TestTimelineFromEventTrace checks the acceptance path: replaying an event
// trace renders exactly the windowed series the live run snapshotted.
func TestTimelineFromEventTrace(t *testing.T) {
	trace, snaps := liveTrace(t)
	for runIdx, snap := range snaps {
		var want bytes.Buffer
		if err := obs.RenderTimeline(&want, snap.Series, true); err != nil {
			t.Fatal(err)
		}
		out, err := runTool(t, []string{"timeline", "-run", strconv.Itoa(runIdx), "-csv"}, trace)
		if err != nil {
			t.Fatalf("timeline -run %d: %v", runIdx, err)
		}
		if out != want.String() {
			t.Errorf("run %d: replayed timeline differs from live series\ngot:\n%s\nwant:\n%s", runIdx, out, want.String())
		}
	}
	// Aligned-column mode carries the same header keys.
	out, err := runTool(t, []string{"timeline"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"t_seconds", "rate_bps mp/sf0", "rtt_s mp/sf0", "queue_bytes link1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("aligned timeline missing %q:\n%s", frag, out)
		}
	}
}

// TestTimelineFromDump feeds the tool a timeline dump (the mpccbench
// -timeline format) and checks run selection and window-flag rejection.
func TestTimelineFromDump(t *testing.T) {
	_, snaps := liveTrace(t)
	var dump []byte
	for i, snap := range snaps {
		dump = obs.AppendTimeline(dump, i, snap.Series)
	}
	for runIdx, snap := range snaps {
		var want bytes.Buffer
		if err := obs.RenderTimeline(&want, snap.Series, true); err != nil {
			t.Fatal(err)
		}
		out, err := runTool(t, []string{"timeline", "-run", strconv.Itoa(runIdx), "-csv"}, dump)
		if err != nil {
			t.Fatalf("timeline dump -run %d: %v", runIdx, err)
		}
		if out != want.String() {
			t.Errorf("run %d: dump render differs from live series", runIdx)
		}
	}
	if _, err := runTool(t, []string{"timeline", "-run", "9"}, dump); err == nil {
		t.Error("missing run in dump not rejected")
	}
	if _, err := runTool(t, []string{"timeline", "-window", "50ms"}, dump); err == nil {
		t.Error("-window accepted for dump input")
	}
}

func TestTimelineWindowFlag(t *testing.T) {
	trace, _ := liveTrace(t)
	narrow, err := runTool(t, []string{"timeline", "-window", "500ms", "-csv"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	def, err := runTool(t, []string{"timeline", "-csv"}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if nn, nd := strings.Count(narrow, "\n"), strings.Count(def, "\n"); nn >= nd {
		t.Errorf("500ms windows should yield fewer rows than 100ms: %d vs %d", nn, nd)
	}
}

// TestUsageErrors pins the exit status: 2 for a usage error, 0 for -h, 1
// for a trace that cannot be read or holds nothing to show — the contract
// of every command here.
func TestUsageErrors(t *testing.T) {
	trace, _ := liveTrace(t)
	cases := []struct {
		args  []string
		stdin []byte
		code  int
	}{
		{nil, nil, 2},
		{[]string{"explode"}, nil, 2},
		{[]string{"summary", "-bogus"}, trace, 2},
		{[]string{"summary", "a", "b"}, trace, 2},
		{[]string{"csv"}, trace, 2},
		{[]string{"csv", "-kind", "bogus"}, trace, 2},
		{[]string{"csv", "-kind", "drop", "-bucket", "0s"}, trace, 2},
		{[]string{"csv", "-kind", "drop", "-run", "-1"}, trace, 2},
		{[]string{"filter", "-kind", "bogus"}, trace, 2},
		{[]string{"timeline", "-run", "-1"}, trace, 2},
		{[]string{"-h"}, nil, 0},
		{[]string{"--help"}, nil, 0},
		{[]string{"summary", "-h"}, nil, 0},
		{[]string{"timeline", "-h"}, nil, 0},
		{[]string{"summary"}, trace, 0},
		{[]string{"summary"}, nil, 1},
		{[]string{"summary", "-run", "9"}, trace, 1},
		{[]string{"filter", "-flow", "nobody"}, trace, 1},
		{[]string{"summary", filepath.Join(t.TempDir(), "missing.jsonl")}, nil, 1},
	}
	for _, tc := range cases {
		_, err := runTool(t, tc.args, tc.stdin)
		if code := exitCode(err); code != tc.code {
			t.Errorf("%q: exit %d (%v), want %d", tc.args, code, err, tc.code)
		}
	}
}
