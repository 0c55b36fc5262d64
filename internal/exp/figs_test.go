package exp

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

// micro is the smallest configuration that still produces meaningful
// steady-state numbers for shape assertions.
func micro() Config {
	return Config{Duration: 8 * sim.Second, Warmup: 4 * sim.Second, Reps: 1, Seed: 11}
}

// defaultConfig is mpccbench's default scale: 20 s runs, 8 s warm-up, seed 42.
func defaultConfig() Config {
	return Config{Duration: 20 * sim.Second, Warmup: 8 * sim.Second, Reps: 1, Seed: 42}
}

// render is the table as mpccbench prints it.
func render(t *Table) string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// The shape tests subsample a figure by trimming rows and protocols on their
// own copy of its declaration, and read the numbers behind the cells —
// Table.Vals[row][column] — rather than parsing them back out.

func TestShallowBufferShape(t *testing.T) {
	// Only the smallest and the BDP buffer and two protocols: MPCC must beat
	// LIA at 3 KB (the Fig. 5a separation).
	s := shallowBufferMP(micro())
	s.rows, s.protos = []int{3, 375}, []Protocol{MPCCLoss, LIA}
	tabs := s.tables(micro())
	if len(tabs) != 1 || len(tabs[0].Rows) != 2 || len(tabs[0].Rows[0]) != 3 {
		t.Fatalf("trimmed sweep rendered %d tables, rows %v", len(tabs), tabs[0].Rows)
	}
	mpcc3, lia3 := tabs[0].Vals[0][1], tabs[0].Vals[0][2]
	if mpcc3 < 140 {
		t.Fatalf("MPCC at 3KB = %.1f Mbps, want near full 2-link utilization", mpcc3)
	}
	if lia3 > mpcc3 {
		t.Fatalf("LIA (%.1f) beat MPCC (%.1f) at 3KB buffer", lia3, mpcc3)
	}
}

func TestRandomLossShape(t *testing.T) {
	s := randomLossMP(micro())
	s.rows, s.protos = []float64{0.01}, []Protocol{MPCCLoss, LIA}
	vals := s.tables(micro())[0].Vals
	mpccG, liaG := vals[0][1], vals[0][2]
	// Fig. 6a headline: at 1% loss MPCC retains most capacity, LIA collapses.
	if mpccG < 120 {
		t.Fatalf("MPCC at 1%% loss = %.1f Mbps", mpccG)
	}
	if liaG > mpccG/2 {
		t.Fatalf("LIA at 1%% loss = %.1f vs MPCC %.1f — separation missing", liaG, mpccG)
	}
}

func TestSelfInducedLatencyShape(t *testing.T) {
	s := selfInducedLatency(micro())
	s.rows, s.protos = []int{1000}, []Protocol{MPCCLatency, LIA}
	tabs := s.tables(micro())
	mpccLat, liaLat := tabs[0].Vals[0][1], tabs[0].Vals[0][2]
	// Fig. 9: with deep (1000 KB) buffers the loss-based LIA bloats the
	// queue; MPCC-latency stays near the 60 ms base RTT.
	if mpccLat >= liaLat {
		t.Fatalf("MPCC-latency RTT %.0f ms not below LIA's %.0f ms", mpccLat, liaLat)
	}
	if mpccLat > 110 {
		t.Fatalf("MPCC-latency RTT %.0f ms too bloated", mpccLat)
	}
	// The cell shows the mean the test just read, ± the spread.
	if cell, want := tabs[0].Rows[0][1], fmt.Sprintf("%.0f±", mpccLat); !strings.HasPrefix(cell, want) {
		t.Fatalf("cell %q does not start with %q", cell, want)
	}
}

func TestConvergenceSuiteShape(t *testing.T) {
	s := convergenceSuite(micro())
	s.protos = []Protocol{MPCCLoss, LIA}
	tabs := s.tables(micro())
	fair, util := tabs[0], tabs[1]
	// Fig. 10 is the transposed sweep: protocols label the rows, the five
	// topologies the columns.
	if len(fair.Rows) != 2 || len(util.Rows) != 2 || fair.Rows[1][0] != "lia" ||
		len(fair.Header) != 1+len(s.rows) || fair.Header[1] != s.rows[0].Name {
		t.Fatalf("wrong table shape: header %v, rows %v", fair.Header, fair.Rows)
	}
	for ri, row := range fair.Vals {
		for ci := 1; ci < len(row); ci++ {
			if jain := row[ci]; jain < 0.3 || jain > 1.0+1e-9 {
				t.Fatalf("jain %s/%s = %v out of range", fair.Rows[ri][0], fair.Header[ci], jain)
			}
			// In BDP-buffer conditions both achieve decent utilization everywhere.
			if u := util.Vals[ri][ci]; u < 0.4 || u > 1.05 {
				t.Fatalf("utilization %s/%s = %v implausible", util.Rows[ri][0], util.Header[ci], u)
			}
		}
	}
}

func TestConvergenceTraceJitter(t *testing.T) {
	tab := ConvergenceTrace(micro())
	// Rows: mpcc (mp-sf1, mp-sf2, sp) then balia (same) = 6 rows.
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[0] != string(MPCCLatency) && row[0] != string(Balia) {
			t.Fatalf("unexpected protocol %q", row[0])
		}
	}
}

func TestCubicFriendlinessShapes(t *testing.T) {
	s := cubicFriendlinessBuffer(micro())
	s.rows, s.protos = []int{375}, []Protocol{MPCCLatency}
	tabs := s.tables(micro())
	mp, sp := tabs[0].Vals[0][1], tabs[1].Vals[0][1]
	// §7.2.6: competing against MPCC-latency, Cubic keeps well over 50% of
	// its link.
	if sp < 50 {
		t.Fatalf("Cubic got only %.1f Mbps against MPCC-latency", sp)
	}
	if mp < 80 {
		t.Fatalf("MPCC got only %.1f Mbps with a private link available", mp)
	}
}

func TestChangingConditionsTracking(t *testing.T) {
	tabs := changingConditions(micro(), 4, 4*sim.Second, []Protocol{MPCCLatency, LIA})
	// Each table: one row per epoch, then the mean absolute errors; the
	// epoch, the reference line, then one column per protocol.
	for _, tab := range tabs {
		if len(tab.Rows) != 5 || len(tab.Header) != 4 {
			t.Fatalf("%s: rows %v", tab.Title, tab.Rows)
		}
		for _, row := range tab.Vals {
			if math.IsNaN(row[2]) || math.IsNaN(row[3]) {
				t.Fatalf("%s: per-protocol series missing: %v", tab.Title, tab.Vals)
			}
		}
	}
	// MPCC should track the optimum at least as well as LIA (Fig. 7).
	if errs := tabs[0].Vals[4]; errs[2] > errs[3]*1.5 {
		t.Fatalf("MPCC tracking error %.1f far worse than LIA's %.1f", errs[2], errs[3])
	}
}

func TestAblationTables(t *testing.T) {
	cfg := micro()
	if rows := AblationConnLevel(cfg).Rows; len(rows) != 2 {
		t.Fatalf("connlevel rows = %d", len(rows))
	}
	if rows := AblationOmegaBase(cfg).Rows; len(rows) != 2 {
		t.Fatalf("omega rows = %d", len(rows))
	}
	if rows := AblationNoPublication(cfg).Rows; len(rows) != 2 {
		t.Fatalf("publication rows = %d", len(rows))
	}
}

func TestRegistryAllRunnersResolve(t *testing.T) {
	reg := Registry()
	if len(reg) < 20 {
		t.Fatalf("registry has %d entries", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("malformed entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestWebWorkload(t *testing.T) {
	cfg := micro()
	tab := WebWorkload(cfg)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if done := tab.Vals[i][2]; !(done > 0) {
			t.Fatalf("%s completed %s short flows", row[0], row[2])
		}
	}
	// The golden was rendered by the hand-wired engine this experiment once had,
	// so it pins that Run(Spec{Flows}) builds the identical simulation.
	var buf bytes.Buffer
	tab.Fprint(&buf)
	checkGolden(t, buf.Bytes(), "web_micro.golden")
}

func TestObservationSinglePath(t *testing.T) {
	cfg := micro()
	cfg.Duration = 12 * sim.Second
	cfg.Warmup = 6 * sim.Second
	tab := ObservationSinglePath(cfg)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	sp := map[string]float64{}
	shared := map[string]float64{}
	for i, row := range tab.Rows {
		sp[row[0]] = tab.Vals[i][2]
		shared[row[0]] = tab.Vals[i][4]
	}
	// The uncoupled per-subflow protocols squeeze the single-path flow by
	// refusing to vacate the shared link (§7.2.5).
	if sp["reno"] >= sp["mpcc-loss"] {
		t.Fatalf("reno left the SP %.1f Mbps, MPCC left %.1f — observation missing", sp["reno"], sp["mpcc-loss"])
	}
	if shared["reno"] <= shared["mpcc-loss"] {
		t.Fatalf("reno shared-link share %.1f not above MPCC's %.1f", shared["reno"], shared["mpcc-loss"])
	}
}

// The paper's §1 motivation: uncoupled per-subflow Vivace behaves like two
// independent flows on a shared bottleneck (taking ≈2/3 against one
// single-path flow), while MPCC's coupling keeps the split near 1/2.
func TestUncoupledVivaceIsUnfairOnSharedBottleneck(t *testing.T) {
	run := func(p Protocol) (mp, sp float64) {
		res := Run(Spec{
			Seed: 21, Duration: 40 * sim.Second, Warmup: 20 * sim.Second,
			Topo: topo.Fig3a(), Proto: p, SPProto: MPCCLoss,
		})
		return res.Flows["mp"].GoodputBps / 1e6, res.Flows["sp"].GoodputBps / 1e6
	}
	vmp, vsp := run(Vivace)
	mmp, msp := run(MPCCLoss)
	vShare := vmp / (vmp + vsp)
	mShare := mmp / (mmp + msp)
	if vShare < mShare {
		t.Fatalf("uncoupled Vivace share %.2f not above coupled MPCC's %.2f", vShare, mShare)
	}
	if vShare < 0.55 {
		t.Fatalf("uncoupled Vivace share %.2f, want ≈2/3", vShare)
	}
	if mShare > 0.62 {
		t.Fatalf("coupled MPCC share %.2f, want ≈1/2", mShare)
	}
}
