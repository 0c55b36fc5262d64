// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per figure; DESIGN.md maps ids to sections). Each iteration
// runs the scaled experiment end to end on the packet-level emulator; the
// reported ns/op is the wall cost of regenerating that figure. Use
// cmd/mpccbench for readable tables and paper-scale sweeps.
package mpcc_test

import (
	"slices"
	"testing"

	"mpcc"
	"mpcc/internal/exp"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

// benchCfg is deliberately small so the full bench suite completes quickly;
// EXPERIMENTS.md records results from the longer default configuration.
func benchCfg() exp.Config {
	return exp.Config{Duration: 8 * sim.Second, Warmup: 3 * sim.Second, Reps: 1, Seed: 42}
}

func runExp(b *testing.B, id string, cfg exp.Config) {
	b.Helper()
	reg := exp.Registry()
	at := slices.IndexFunc(reg, func(e exp.Experiment) bool { return e.ID == id })
	if at < 0 {
		b.Fatalf("no experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tabs := reg[at].Run(cfg)
		if len(tabs) == 0 || len(tabs[0].Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig2GradientField(b *testing.B)    { runExp(b, "fig2", benchCfg()) }
func BenchmarkFig5aShallowBufferMP(b *testing.B) { runExp(b, "fig5a", benchCfg()) }
func BenchmarkFig5bShallowBufferSP(b *testing.B) { runExp(b, "fig5b", benchCfg()) }
func BenchmarkFig6aRandomLossMP(b *testing.B)    { runExp(b, "fig6a", benchCfg()) }
func BenchmarkFig6bRandomLossSP(b *testing.B)    { runExp(b, "fig6b", benchCfg()) }

func BenchmarkFig7ChangingConditions(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tabs := exp.ChangingConditions(cfg, 4, 3*sim.Second)
		if len(tabs[0].Rows) != 4+1 {
			b.Fatal("bad epochs")
		}
	}
}

func BenchmarkFig8ChangingConditionsSP(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = exp.ChangingConditions(cfg, 4, 3*sim.Second)[1]
	}
}

func BenchmarkFig9SelfInducedLatency(b *testing.B) { runExp(b, "fig9", benchCfg()) }
func BenchmarkFig10aFairness(b *testing.B)         { runExp(b, "fig10", benchCfg()) }
func BenchmarkFig10bUtilization(b *testing.B)      { runExp(b, "fig10", benchCfg()) }

func BenchmarkFig11Convergence(b *testing.B) { runExp(b, "fig11", benchCfg()) }
func BenchmarkFig12CubicBuffer(b *testing.B) { runExp(b, "fig12", benchCfg()) }
func BenchmarkFig13CubicLoss(b *testing.B)   { runExp(b, "fig13", benchCfg()) }

func BenchmarkFig14ParameterGrid3c(b *testing.B) {
	cfg := benchCfg()
	cfg.Duration = 5 * sim.Second
	cfg.Warmup = 2 * sim.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := exp.ParameterGrid(cfg, topo.Fig3c, 72) // 8 of 576 pairs per iteration
		if g.Configs == 0 {
			b.Fatal("no configs")
		}
	}
}

func BenchmarkFig15ParameterGrid3d(b *testing.B) {
	cfg := benchCfg()
	cfg.Duration = 5 * sim.Second
	cfg.Warmup = 2 * sim.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := exp.ParameterGrid(cfg, topo.Fig3d, 72)
		if g.Configs == 0 {
			b.Fatal("no configs")
		}
	}
}

// download runs one 10 MB synthetic-WAN download and returns its completion
// time (-1 if it missed the deadline).
func download(seed int64, server, home string, p exp.Protocol) sim.Time {
	return exp.Run(exp.DownloadSpec(seed, server, home, p, 10_000_000)).Flows["dl"].FCT
}

func BenchmarkFig16LiveDownloads(b *testing.B) {
	// One representative pair per home rather than the full 6×3 matrix.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, home := range topo.Homes {
			if download(int64(i+1), "Tokyo", home, exp.MPCCLatency) <= 0 {
				b.Fatal("download failed")
			}
		}
	}
}

func BenchmarkFig17NormalizedGain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mp := download(1, "SaoPaulo", "Israel", exp.MPCCLatency)
		lia := download(1, "SaoPaulo", "Israel", exp.LIA)
		if !(mp > 0 && lia > 0) {
			b.Fatal("download failed")
		}
	}
}

func BenchmarkFig19DataCenterFCT(b *testing.B) {
	dc := exp.DCConfig{
		LongFlows: 1, LongBytes: 5_000_000,
		MedFlows: 2, MedBytes: 500_000,
		ShortEvery: 500 * sim.Millisecond, ShortBytes: 10_000, ShortFor: sim.Second,
		Duration: 3 * sim.Second, SubflowsPer: 3,
	}
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.DataCenterFCT(cfg, dc)
		if len(r) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkSchedulerValidation(b *testing.B) { runExp(b, "sched", benchCfg()) }

// Ablation benches for the design choices DESIGN.md calls out.
func BenchmarkAblationConnLevel(b *testing.B)          { runExp(b, "ablation-connlevel", benchCfg()) }
func BenchmarkAblationOmegaBase(b *testing.B)          { runExp(b, "ablation-omega", benchCfg()) }
func BenchmarkAblationNoPublication(b *testing.B)      { runExp(b, "ablation-publication", benchCfg()) }
func BenchmarkAblationSchedulerThreshold(b *testing.B) { runExp(b, "ablation-threshold", benchCfg()) }

// BenchmarkProbeOverheadDisabled measures the disabled-observability fast
// path: every emit helper on a nil probe bus, i.e. exactly what the hot
// loops of netem/transport/cc pay per event when no one is tracing. The
// final assertion enforces the obs-layer contract that this path allocates
// nothing, keeping BenchmarkEmulatorThroughput's allocs/op untouched.
func BenchmarkProbeOverheadDisabled(b *testing.B) {
	var bus *mpcc.ProbeBus // nil = disabled
	emitAll := func(at mpcc.Time) {
		bus.MIDecision(at, "f", 0, "probing", 1e7)
		bus.UtilitySample(at, "f", 0, "probing", 1e7, 3.5)
		bus.RateChange(at, "f", 1, 2e7)
		bus.Drop(at, "l1", 0, 1500)
		bus.QueueDepth(at, "l1", 4500)
		bus.Retransmit(at, "f", 0, 1500)
		bus.RTOBackoff(at, "f", 0, mpcc.Second, 2)
		bus.SubflowDown(at, "f", 1)
		bus.SubflowUp(at, "f", 1)
		bus.SchedPick(at, "f", 0, 1500)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		emitAll(mpcc.Time(i))
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(1000, func() { emitAll(0) }); allocs != 0 {
		b.Fatalf("disabled probes allocated %v times per emit batch, want 0", allocs)
	}
}

// BenchmarkEmulatorThroughput measures raw simulator speed: events per
// second for a saturated MPCC₂ run (useful when sizing paper-scale sweeps).
func BenchmarkEmulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		eng := mpcc.NewEngine(int64(i))
		net := mpcc.NewNetwork(eng)
		net.AddLink("l1", 100e6, 30*mpcc.Millisecond, 375_000)
		net.AddLink("l2", 100e6, 30*mpcc.Millisecond, 375_000)
		conn := mpcc.NewConnection(eng, "bench", mpcc.MPCCLoss,
			[]*mpcc.Path{net.Path("l1"), net.Path("l2")}, mpcc.AttachOptions{})
		conn.SetApp(mpcc.Bulk{}, nil)
		conn.Start(0)
		eng.Run(5 * mpcc.Second)
		events += eng.Processed
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// benchSharded runs one Clusters(4) experiment per iteration — four
// independent Fig3c-style clusters, eight flows over eight links — through
// the space-parallel engine with the given worker count. The probe trace is
// byte-identical for every shard count (see internal/exp/sharded_test.go),
// so the events/op column is constant and the ns/op gap between Sharded1
// and Sharded4 is exactly what engine-level parallelism buys (or costs,
// on a single-core host) for one large simulation.
func benchSharded(b *testing.B, shards int) {
	b.Helper()
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		res := exp.Run(exp.Spec{
			Seed:     int64(i + 1),
			Duration: 2 * sim.Second,
			Topo:     topo.Clusters(4),
			Proto:    exp.MPCCLoss,
			Shards:   shards,
		})
		if res.Events == 0 {
			b.Fatal("sharded run processed no events")
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func BenchmarkEmulatorThroughputSharded1(b *testing.B) { benchSharded(b, 1) }
func BenchmarkEmulatorThroughputSharded4(b *testing.B) { benchSharded(b, 4) }

// BenchmarkEmulatorThroughputProbed is the same rig with the full telemetry
// pipeline enabled — metrics registry (sketches + windowed series), flight
// recorder, link probes, queue sampler. The gap to BenchmarkEmulatorThroughput
// is the all-in cost of always-on observability (the gated measurement of
// it is the repository benchmark's traced_bulk workload).
func BenchmarkEmulatorThroughputProbed(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		eng := mpcc.NewEngine(int64(i))
		net := mpcc.NewNetwork(eng)
		net.AddLink("l1", 100e6, 30*mpcc.Millisecond, 375_000)
		net.AddLink("l2", 100e6, 30*mpcc.Millisecond, 375_000)
		bus := mpcc.NewProbeBus(obs.NewFlightRecorder(obs.DefaultFlightRecorderSize))
		bus.SetRegistry(mpcc.NewMetricsRegistry())
		var qps []mpcc.QueueProbe
		for _, name := range []string{"l1", "l2"} {
			l := net.Link(name)
			l.SetProbes(bus)
			qps = append(qps, l.QueueProbe())
		}
		mpcc.SampleQueues(eng, bus, 10*mpcc.Millisecond, qps...)
		paths := []*mpcc.Path{net.Path("l1"), net.Path("l2")}
		for _, p := range paths {
			p.SetProbes(bus)
		}
		conn := mpcc.NewConnection(eng, "bench", mpcc.MPCCLoss, paths,
			mpcc.AttachOptions{Probes: bus})
		conn.SetApp(mpcc.Bulk{}, nil)
		conn.Start(0)
		eng.Run(5 * mpcc.Second)
		events += eng.Processed
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
