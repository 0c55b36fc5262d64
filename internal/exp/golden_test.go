package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSpec is a deliberately small fixed-seed run: low link rates and a
// short horizon keep the checked-in trace a few hundred KB while still
// exercising every event kind the JSONL writer emits (MI decisions, utility
// samples, rate changes, drops, queue samples, scheduler picks).
func goldenSpec(bus *obs.Bus) Spec {
	return Spec{
		Seed:     11,
		Duration: 1200 * sim.Millisecond,
		Topo:     topo.Fig3c(),
		Proto:    MPCCLoss,
		Probes:   bus,
		Tweak: func(net *topo.Net) {
			for _, name := range net.LinkNames() {
				l := net.Link(name)
				l.SetRate(2e6)
				l.SetDelay(10 * sim.Millisecond)
				l.SetBuffer(12000)
			}
		},
	}
}

// TestGoldenTrace pins the byte-exact JSONL trace of a fixed-seed run. Any
// diff means either the simulation's event sequence changed (an intentional
// behavior change — regenerate with `go test ./internal/exp -run
// TestGoldenTrace -update`) or determinism broke (a bug).
func TestGoldenTrace(t *testing.T) {
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	Run(goldenSpec(obs.NewBus(jw)))
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGoldenTrace(t, buf.Bytes(), "trace_fig3c_seed11.jsonl.golden")
}

// policedGoldenSpec layers the adversarial path contracts over the golden
// topology: a policer on link1, a shaper on link2, and two handovers on
// link2 — so the checked-in trace locks the wire format of the policer-drop
// cause and the shaper-delay and handover event kinds.
func policedGoldenSpec(bus *obs.Bus) Spec {
	return Spec{
		Seed:     17,
		Duration: 1200 * sim.Millisecond,
		Topo:     topo.Fig3c(),
		Proto:    MPCCLoss,
		Probes:   bus,
		Tweak: func(net *topo.Net) {
			for _, name := range net.LinkNames() {
				l := net.Link(name)
				l.SetRate(2e6)
				l.SetDelay(10 * sim.Millisecond)
				l.SetBuffer(12000)
			}
			net.Link("link1").SetPolicer(1e6, 4500)
			net.Link("link2").SetShaper(1.5e6, 4500)
			net.Link("link2").ScheduleHandovers(
				[]netem.HandoverStep{
					{RateBps: 2.5e6, Delay: 12 * sim.Millisecond},
					{RateBps: 2e6, Delay: 10 * sim.Millisecond},
				},
				400*sim.Millisecond, 300*sim.Millisecond, 2)
		},
	}
}

// TestGoldenTracePoliced pins the trace of a run through policed, shaped and
// handover-stepping links, byte for byte.
func TestGoldenTracePoliced(t *testing.T) {
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	Run(policedGoldenSpec(obs.NewBus(jw)))
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	for _, frag := range []string{`"policer"`, `"shaper-delay"`, `"handover"`} {
		if !bytes.Contains(got, []byte(frag)) {
			t.Fatalf("policed golden run emitted no %s events; the regression is vacuous", frag)
		}
	}
	checkGoldenTrace(t, got, "trace_policed_seed17.jsonl.golden")
}

// checkGolden compares got against the named golden file (rewriting it
// under -update) and returns the stored bytes.
func checkGolden(t *testing.T, got []byte, name string) []byte {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return got
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverges from %s: %s\nIf the simulation change is intentional, regenerate with -update.",
			golden, firstDiff(got, want))
	}
	return want
}

// checkGoldenTrace is checkGolden for JSONL traces: it also verifies that
// the stored trace parses.
func checkGoldenTrace(t *testing.T, got []byte, name string) {
	t.Helper()
	if len(got) == 0 {
		t.Fatal("golden run produced an empty trace")
	}
	want := checkGolden(t, got, name)

	// The golden file must itself be a valid trace.
	events := 0
	if err := obs.ReadTrace(bytes.NewReader(want), func(obs.Event) error {
		events++
		return nil
	}); err != nil {
		t.Fatalf("golden trace does not parse: %v", err)
	}
	if events == 0 {
		t.Fatal("golden trace holds no events")
	}
}

// firstDiff locates the first divergent line for a readable failure.
func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte{'\n'}), bytes.Split(want, []byte{'\n'})
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("first diff at line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(gl), len(wl))
}

// TestRegistryTablesGolden pins every table of every experiment that scales
// with Config at a micro configuration, byte for byte, for one worker and for
// many (fig16/fig17/fig19 run fixed-size workloads a micro Config cannot
// shrink — 7 s of wall clock a pass — and are pinned by
// TestLiveTablesGolden instead). The golden was rendered by the hand-written
// per-cell loops the sweep runner replaced, so it pins that the runner
// enumerates, seeds, folds and renders exactly as they did.
func TestRegistryTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	cfg := Config{Duration: sim.Second, Warmup: 500 * sim.Millisecond, Reps: 1, Seed: 42}
	for _, workers := range []int{1, 8} {
		checkGolden(t, renderTables(workers, cfg, func(id string) bool { return !liveIDs[id] }), "tables_micro.golden")
	}
}

// TestSweepRepsGolden pins the cell format of a replicated sweep, byte for
// byte: Fig. 9 subsampled to two buffers and two protocols at three
// replicates, so each cell shows the mean latency, the mean in-run spread
// and the replicates' range.
func TestSweepRepsGolden(t *testing.T) {
	sw := selfInducedLatency(Config{Duration: sim.Second, Warmup: 500 * sim.Millisecond, Reps: 3, Seed: 42})
	sw.rows, sw.protos = sw.rows[:2], []Protocol{MPCCLatency, Reno}
	var buf bytes.Buffer
	for _, tab := range sw.tables() {
		tab.Fprint(&buf)
	}
	checkGolden(t, buf.Bytes(), "sweep_reps3.golden")
}

// liveIDs are the experiments whose workload is fixed by the paper's set-up
// (file size, flow mix), not by Config's duration.
var liveIDs = map[string]bool{"fig16": true, "fig17": true, "fig19": true}

// TestLiveTablesGolden pins the fig16, fig17 and fig19 tables at the default
// scale — what `mpccbench -exp fig16|fig17|fig19` prints — byte for byte.
// One pass on the many-worker pool: that the worker count cannot change a
// table is TestRegistryTablesGolden's to pin, and a second pass would double
// the most expensive test of the package under -race.
func TestLiveTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 295 default-scale simulations")
	}
	checkGolden(t, renderTables(8, defaultConfig(), func(id string) bool { return liveIDs[id] }), "tables_live.golden")
}

// renderTables runs the Registry experiments that pick selects, in id order,
// on a pool of the given size and concatenates their rendered tables.
func renderTables(workers int, cfg Config, pick func(id string) bool) []byte {
	var buf bytes.Buffer
	withWorkers(workers, func() {
		for _, e := range Registry() {
			if !pick(e.ID) {
				continue
			}
			for _, tab := range e.Run(cfg) {
				tab.Fprint(&buf)
			}
		}
	})
	return buf.Bytes()
}
