package exp

import (
	"bytes"
	"strconv"
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

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := tab.Rows[row][col]
	if i := strings.Index(s, "\u00b1"); i >= 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// column returns the 1-based data column index of a protocol in a header.
func column(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, h := range tab.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, tab.Header)
	return -1
}

func TestShallowBufferShape(t *testing.T) {
	// Only the two smallest buffers and two protocols: MPCC must beat LIA
	// at 3 KB (the Fig. 5a separation).
	old := Fig5aBuffers
	defer func() { Fig5aBuffers = old }()
	Fig5aBuffers = []int{3, 375}
	oldSet := MultipathSet
	defer func() { MultipathSet = oldSet }()
	MultipathSet = []Protocol{MPCCLoss, LIA}

	tab := ShallowBufferMP(micro())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	mpcc3 := cell(t, tab, 0, column(t, tab, "mpcc-loss"))
	lia3 := cell(t, tab, 0, column(t, tab, "lia"))
	if mpcc3 < 140 {
		t.Fatalf("MPCC at 3KB = %.1f Mbps, want near full 2-link utilization", mpcc3)
	}
	if lia3 > mpcc3 {
		t.Fatalf("LIA (%.1f) beat MPCC (%.1f) at 3KB buffer", lia3, mpcc3)
	}
}

func TestRandomLossShape(t *testing.T) {
	old := Fig6LossRates
	defer func() { Fig6LossRates = old }()
	Fig6LossRates = []float64{0.01}
	oldSet := MultipathSet
	defer func() { MultipathSet = oldSet }()
	MultipathSet = []Protocol{MPCCLoss, LIA}

	tab := RandomLossMP(micro())
	mpccG := cell(t, tab, 0, column(t, tab, "mpcc-loss"))
	liaG := cell(t, tab, 0, column(t, tab, "lia"))
	// Fig. 6a headline: at 1% loss MPCC retains most capacity, LIA collapses.
	if mpccG < 120 {
		t.Fatalf("MPCC at 1%% loss = %.1f Mbps", mpccG)
	}
	if liaG > mpccG/2 {
		t.Fatalf("LIA at 1%% loss = %.1f vs MPCC %.1f — separation missing", liaG, mpccG)
	}
}

func TestSelfInducedLatencyShape(t *testing.T) {
	old := Fig9Buffers
	defer func() { Fig9Buffers = old }()
	Fig9Buffers = []int{1000}
	oldP := Fig9Protocols
	defer func() { Fig9Protocols = oldP }()
	Fig9Protocols = []Protocol{MPCCLatency, LIA}

	tab := SelfInducedLatency(micro())
	mpccLat := cell(t, tab, 0, column(t, tab, "mpcc-latency"))
	liaLat := cell(t, tab, 0, column(t, tab, "lia"))
	// Fig. 9: with deep (1000 KB) buffers the loss-based LIA bloats the
	// queue; MPCC-latency stays near the 60 ms base RTT.
	if mpccLat >= liaLat {
		t.Fatalf("MPCC-latency RTT %.0f ms not below LIA's %.0f ms", mpccLat, liaLat)
	}
	if mpccLat > 110 {
		t.Fatalf("MPCC-latency RTT %.0f ms too bloated", mpccLat)
	}
}

func TestConvergenceSuiteShape(t *testing.T) {
	oldP := Fig10Protocols
	defer func() { Fig10Protocols = oldP }()
	Fig10Protocols = []Protocol{MPCCLoss, LIA}
	fair, util := ConvergenceSuite(micro())
	if len(fair.Rows) != 2 || len(util.Rows) != 2 {
		t.Fatal("wrong row counts")
	}
	// In BDP-buffer conditions both achieve decent utilization everywhere.
	for ri := range util.Rows {
		for ci := 1; ci < len(util.Rows[ri]); ci++ {
			v := cell(t, util, ri, ci)
			if v < 0.4 || v > 1.05 {
				t.Fatalf("utilization %s/%s = %v implausible", util.Rows[ri][0], util.Header[ci], v)
			}
		}
	}
	for ri := range fair.Rows {
		for ci := 1; ci < len(fair.Rows[ri]); ci++ {
			v := cell(t, fair, ri, ci)
			if v < 0.3 || v > 1.0+1e-9 {
				t.Fatalf("jain %s/%s = %v out of range", fair.Rows[ri][0], fair.Header[ci], v)
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
	old := Fig5aBuffers
	defer func() { Fig5aBuffers = old }()
	Fig5aBuffers = []int{375}
	oldP := Fig12Protocols
	defer func() { Fig12Protocols = oldP }()
	Fig12Protocols = []Protocol{MPCCLatency}

	mpTab, spTab := CubicFriendlinessBuffer(micro())
	sp := cell(t, spTab, 0, 1)
	// §7.2.6: competing against MPCC-latency, Cubic keeps well over 50% of
	// its link.
	if sp < 50 {
		t.Fatalf("Cubic got only %.1f Mbps against MPCC-latency", sp)
	}
	mp := cell(t, mpTab, 0, 1)
	if mp < 80 {
		t.Fatalf("MPCC got only %.1f Mbps with a private link available", mp)
	}
}

func TestChangingConditionsTracking(t *testing.T) {
	oldP := Fig7Protocols
	defer func() { Fig7Protocols = oldP }()
	Fig7Protocols = []Protocol{MPCCLatency, LIA}

	cfg := micro()
	r := ChangingConditions(cfg, 4, 4*sim.Second)
	if len(r.Epochs) != 4 || len(r.OptMbps) != 4 || len(r.FairMbps) != 4 {
		t.Fatal("epoch bookkeeping broken")
	}
	if len(r.MPSubflow[MPCCLatency]) != 4 || len(r.SPGoodput[LIA]) != 4 {
		t.Fatal("per-protocol series missing")
	}
	// MPCC should track the optimum at least as well as LIA (Fig. 7).
	if r.TrackError[MPCCLatency] > r.TrackError[LIA]*1.5 {
		t.Fatalf("MPCC tracking error %.1f far worse than LIA's %.1f",
			r.TrackError[MPCCLatency], r.TrackError[LIA])
	}
	if len(r.Fig7Table().Rows) != 5 || len(r.Fig8Table().Rows) != 5 {
		t.Fatal("table rendering broken")
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
	if _, err := RunByID("definitely-not-real", DefaultConfig()); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestWebWorkload(t *testing.T) {
	cfg := micro()
	tab := WebWorkload(cfg)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		done, err := strconv.Atoi(row[2])
		if err != nil || done == 0 {
			t.Fatalf("%s completed %s short flows", row[0], row[2])
		}
	}
	// The golden was rendered by the hand-wired engine runWeb used to carry,
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
	for _, row := range tab.Rows {
		sp[row[0]] = parseFloat(t, row[2])
		shared[row[0]] = parseFloat(t, row[4])
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

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q", s)
	}
	return v
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
