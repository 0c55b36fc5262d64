package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

// tiny returns a fast configuration for harness smoke tests.
func tiny() Config {
	return Config{Duration: 6 * sim.Second, Warmup: 3 * sim.Second, Reps: 1, Seed: 7}
}

func TestAttachAllProtocols(t *testing.T) {
	for _, p := range append(append([]Protocol{}, MultipathSet...), Cubic, MPCCConnLevel) {
		eng := sim.NewEngine(1)
		net := topo.Fig3b().Build(eng)
		paths := net.Paths([][]string{{"link1"}, {"link2"}})
		conn := Attach(eng, "c", p, paths, AttachOptions{})
		if got := len(conn.Subflows()); got != 2 {
			t.Fatalf("%s: %d subflows", p, got)
		}
		conn.Start(0)
		eng.Run(2 * sim.Second)
		if conn.AckedBytes() == 0 {
			t.Fatalf("%s: no data delivered", p)
		}
	}
}

func TestAttachUnknownPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net := topo.Fig3b().Build(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown protocol")
		}
	}()
	Attach(eng, "x", Protocol("nope"), net.Paths([][]string{{"link1"}}), AttachOptions{})
}

func TestSinglePathPeers(t *testing.T) {
	cases := map[Protocol]Protocol{
		MPCCLatency: MPCCLatency, MPCCLoss: MPCCLoss,
		LIA: Reno, OLIA: Reno, Balia: Reno, WVegas: Reno, Reno: Reno,
		Cubic: Cubic, BBR: BBR,
	}
	for p, want := range cases {
		if got := p.SinglePathPeer(); got != want {
			t.Errorf("%s peer = %s, want %s", p, got, want)
		}
	}
}

func TestRateBasedClassification(t *testing.T) {
	for _, p := range []Protocol{MPCCLatency, MPCCLoss, BBR, MPCCConnLevel} {
		if !p.RateBased() {
			t.Errorf("%s should be rate-based", p)
		}
	}
	for _, p := range []Protocol{LIA, OLIA, Balia, WVegas, Reno, Cubic} {
		if p.RateBased() {
			t.Errorf("%s should be window-based", p)
		}
	}
}

func TestRunTopology3c(t *testing.T) {
	cfg := tiny()
	res := Run(Spec{
		Seed: cfg.Seed, Duration: cfg.Duration, Warmup: cfg.Warmup,
		Topo: topo.Fig3c(), Proto: MPCCLoss,
	})
	if len(res.Flows) != 2 {
		t.Fatalf("flows = %d", len(res.Flows))
	}
	mp, sp := res.Flows["mp"], res.Flows["sp"]
	if mp == nil || sp == nil {
		t.Fatal("missing flows")
	}
	if mp.GoodputBps <= 0 || sp.GoodputBps <= 0 {
		t.Fatalf("goodputs %v / %v", mp.GoodputBps, sp.GoodputBps)
	}
	if len(mp.SubflowGoodputBps) != 2 || len(sp.SubflowGoodputBps) != 1 {
		t.Fatal("subflow accounting broken")
	}
	if res.Utilization <= 0 || res.Utilization > 1.1 {
		t.Fatalf("utilization %v", res.Utilization)
	}
	if res.Jain <= 0 || res.Jain > 1 {
		t.Fatalf("jain %v", res.Jain)
	}
	if len(mp.Series) == 0 || len(mp.SubflowSeries) != 2 {
		t.Fatal("series missing")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := tiny()
	spec := Spec{Seed: cfg.Seed, Duration: cfg.Duration, Warmup: cfg.Warmup,
		Topo: topo.Fig3c(), Proto: MPCCLoss}
	a := Run(spec)
	b := Run(spec)
	if a.Flows["mp"].GoodputBps != b.Flows["mp"].GoodputBps {
		t.Fatal("identical seeds must give identical results")
	}
}

// TestRunAveraged folds two replicates of a spec into their mean goodput.
func TestRunAveraged(t *testing.T) {
	cfg := tiny()
	spec := Spec{Seed: cfg.Seed, Duration: cfg.Duration, Warmup: cfg.Warmup,
		Topo: topo.Fig3b(), Proto: Reno}
	f := runSpecs(Config{Reps: 2}, []Spec{spec}, func(r *Result) []float64 { return []float64{r.Flows["mp"].GoodputBps} })[0]
	if f.reps != 2 || !(f.mean[0] > 0) || f.lo[0] > f.mean[0] || f.mean[0] > f.hi[0] {
		t.Fatalf("averaged goodput %v over %d replicates, range [%v..%v]", f.mean[0], f.reps, f.lo[0], f.hi[0])
	}
}

// TestTableRendering pins Fprint's layout: columns padded to their widest
// cell counted in runes, so a cell holding ± lines up with the rest, an
// underline as long as the header, then the notes.
func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb", "c"}, Notes: []string{"n1"}}
	tab.addRow([]string{"1"}, cell{"70±12", 70}, numCell("%.0f", 3))
	tab.addRow([]string{"22"}, cell{"-", math.NaN()}, numCell("%.0f", 4))
	want := "== T ==\n" +
		"a   bb     c\n" +
		"------------\n" +
		"1   70±12  3\n" +
		"22  -      4\n" +
		"note: n1\n"
	if got := render(tab); got != want {
		t.Fatalf("rendered\n%s\nwant\n%s", got, want)
	}
	if got := fmt.Sprint(tab.Vals); got != "[[NaN 70 3] [NaN NaN 4]]" {
		t.Fatalf("Vals = %s, want NaN for each label and each missing value", got)
	}
}

func TestTable1GridHas24Configs(t *testing.T) {
	g := Table1Grid()
	if len(g) != 24 {
		t.Fatalf("Table 1 grid has %d configs, want 24", len(g))
	}
	seen := map[LinkConfig]bool{}
	for _, c := range g {
		if seen[c] {
			t.Fatalf("duplicate config %+v", c)
		}
		seen[c] = true
	}
}

func TestParameterGridSubsample(t *testing.T) {
	cfg := tiny()
	cfg.Duration = 4 * sim.Second
	cfg.Warmup = 2 * sim.Second
	g := ParameterGrid(cfg, topo.Fig3c, 144) // 4 of 576 pairs
	if g.Configs != 4 {
		t.Fatalf("ran %d configs, want 4", g.Configs)
	}
	for _, base := range GridBaselines {
		if len(g.UtilRatio[base]) != 4 || len(g.JainRatio[base]) != 4 {
			t.Fatalf("ratio vectors wrong length")
		}
		for _, r := range g.UtilRatio[base] {
			if r <= 0 || r > 13 {
				t.Fatalf("utilization ratio %v out of range", r)
			}
		}
	}
	tab := g.Table("grid")
	if len(tab.Rows) != 4 {
		t.Fatalf("grid table rows = %d, want 4", len(tab.Rows))
	}
}

func TestRatioClipping(t *testing.T) {
	if ratio(1, 0) != 13 {
		t.Fatal("div-by-zero should clip to 13")
	}
	if ratio(0, 0) != 1 {
		t.Fatal("0/0 should be parity")
	}
	if ratio(100, 1) != 13 {
		t.Fatal("huge ratios should clip")
	}
	if ratio(2, 4) != 0.5 {
		t.Fatal("plain ratio broken")
	}
}

func TestFig2GradientFieldTable(t *testing.T) {
	tab := Fig2GradientField()
	if len(tab.Rows) != 11*11 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRunDownloadSinglePair(t *testing.T) {
	spec := DownloadSpec(1, "Ohio", "Boston", MPCCLoss, 3_000_000)
	fct := Run(spec).Flows["dl"].FCT
	if fct <= 0 || fct > 120*sim.Second {
		t.Fatalf("download time %v implausible", fct)
	}
	// Same seed, same pair → deterministic.
	if again := Run(spec).Flows["dl"].FCT; again != fct {
		t.Fatal("download not deterministic")
	}
}

// TestRunEndsAtLastCompletion pins Run's stop rule: a spec whose flows are
// all finite transfers ends in the event that completes the last of them,
// whatever its Duration — a rate-based controller would otherwise keep
// ticking to the horizon — while one bulk flow, or a churn overlay, keeps
// the run going to Duration.
func TestRunEndsAtLastCompletion(t *testing.T) {
	for _, p := range []Protocol{MPCCLoss, BBR} {
		var events []uint64
		for _, horizon := range []sim.Time{30 * sim.Second, 20 * 60 * sim.Second} {
			s := DownloadSpec(1, "Ohio", "Boston", p, 3_000_000)
			s.Duration = horizon
			res := Run(s)
			if fct := res.Flows["dl"].FCT; fct <= 0 || res.Net.Eng.Now() != fct {
				t.Fatalf("%s, horizon %v: engine ended at %v, download at %v", p, horizon, res.Net.Eng.Now(), fct)
			}
			events = append(events, res.Events)
		}
		if events[0] != events[1] {
			t.Errorf("%s: %d events at a 30 s horizon, %d at 20 min — the run outlived its download", p, events[0], events[1])
		}
	}

	paths := [][]string{{"link1"}, {"link2"}}
	file := FlowSpec{Name: "file", Proto: MPCCLoss, Paths: paths, FileBytes: 100_000}
	mixed := tiny().spec(topo.Fig3b(), MPCCLoss, nil)
	mixed.Flows = []FlowSpec{file, {Name: "bulk", Proto: MPCCLoss, Paths: paths}}
	if res := Run(mixed); res.Flows["file"].FCT < 0 || res.Net.Eng.Now() != mixed.Duration {
		t.Errorf("bulk + file: file FCT %v, engine ended at %v, want the run to reach %v",
			res.Flows["file"].FCT, res.Net.Eng.Now(), mixed.Duration)
	}

	churn := ChurnSpecAt(churnTestConfig(), 0.6)
	file.Paths = topo.ServerFarmPaths(0)
	churn.Flows = []FlowSpec{file}
	res := Run(churn)
	if res.Flows["file"].FCT < 0 || res.Net.Eng.Now() != churn.Duration || res.Churn.Completed == 0 {
		t.Errorf("churn + file: file FCT %v, engine ended at %v with %d sessions completed, want the run to reach %v",
			res.Flows["file"].FCT, res.Net.Eng.Now(), res.Churn.Completed, churn.Duration)
	}
}

func TestSchedulerValidationShape(t *testing.T) {
	cfg := tiny()
	tab := SchedulerValidation(cfg)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	def, rate := tab.Vals[0][1], tab.Vals[1][1]
	if rate <= def {
		t.Fatalf("rate scheduler (%v) should beat default (%v)", rate, def)
	}
	if def > 140 {
		t.Fatalf("default scheduler too good (%v Mbps); starvation not reproduced", def)
	}
}

// smallDC shrinks the Fig. 19 workload to a two-second smoke.
func smallDC() DCConfig {
	return DCConfig{
		LongFlows: 1, LongBytes: 2_000_000,
		MedFlows: 1, MedBytes: 200_000,
		ShortEvery: 500 * sim.Millisecond, ShortBytes: 10_000, ShortFor: sim.Second,
		Duration: 2 * sim.Second, SubflowsPer: 3,
	}
}

func TestDataCenterSmoke(t *testing.T) {
	spec := dcSpec(3, MPCCLoss, smallDC())
	started := map[string]int{}
	for _, f := range spec.Flows {
		started[dcClass(f)]++
	}
	// Per class: the completed count, then the mean FCT.
	fcts := dcFCTs(spec.Flows)(Run(spec))
	for c, class := range dcClasses {
		if started[class] == 0 {
			t.Fatalf("%s: no flows started", class)
		}
		if fcts[7*c] == 0 {
			t.Fatalf("%s: no flows completed (started %d)", class, started[class])
		}
	}
	if short, long := fcts[1], fcts[7*2+1]; short >= long {
		t.Fatal("short flows should finish faster than long ones")
	}
}

func TestExperimentTablesDeterministic(t *testing.T) {
	cfg := tiny()
	a := render(SchedulerValidation(cfg))
	b := render(SchedulerValidation(cfg))
	if a != b {
		t.Fatalf("same config produced different tables:\n%s\nvs\n%s", a, b)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	// Title and notes are left out.
	if sb.String() != "a,b\n1,2\n" {
		t.Fatalf("CSV = %q", sb.String())
	}
}

func TestTableWriteCSVQuotesCells(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"3", "4,x"}}}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,b\n1,2\n3,\"4,x\"\n" {
		t.Fatalf("comma-containing cell not quoted: CSV = %q", sb.String())
	}
}
