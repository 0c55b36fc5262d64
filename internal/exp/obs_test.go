package exp

import (
	"bytes"
	"reflect"
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

func probeSpec(bus *obs.Bus) Spec {
	return Spec{Seed: 7, Duration: 4 * sim.Second, Warmup: 2 * sim.Second,
		Topo: topo.Fig3c(), Proto: MPCCLoss, Probes: bus}
}

func TestRunSnapshotsRegistry(t *testing.T) {
	res := Run(probeSpec(obs.NewBus()))
	if res.Obs == nil {
		t.Fatal("no registry snapshot on a probed run")
	}
	s := res.Obs
	if s.Counters["sched_picks"] == 0 {
		t.Error("no scheduler picks recorded")
	}
	if s.Counters["drops.total"] == 0 {
		t.Error("no drops recorded (Fig3c bottleneck should drop)")
	}
	miTotal := 0.0
	for _, name := range s.SortedCounterNames() {
		if len(name) > 3 && name[:3] == "mi." {
			miTotal += s.Counters[name]
		}
	}
	if miTotal == 0 {
		t.Error("no MI decisions recorded")
	}
	if s.Histograms["queue_depth_bytes"].Count == 0 {
		t.Error("no queue-depth samples recorded")
	}
	if rtt := s.Histograms["rtt_seconds"]; rtt.Count == 0 || rtt.P50 <= 0 {
		t.Errorf("no RTT samples recorded: %+v", rtt)
	}
	if s.Gauges["sim.events_processed"] <= 0 || s.Gauges["sim.max_pending_timers"] <= 0 {
		t.Errorf("engine gauges missing: %+v", s.Gauges)
	}
	// Windowed series come out of every probed run: per-subflow rate and
	// RTT trajectories plus per-link queue depth.
	for _, key := range []string{"rate_bps mp/sf0", "rtt_s mp/sf0", "queue_bytes link1"} {
		sd := s.Series[key]
		if sd == nil || sd.Len() == 0 {
			t.Errorf("series %q missing or empty; have %v", key, obs.SortedSeriesKeys(s.Series))
		}
	}

	// Without a bus there is no snapshot and the run result is unchanged.
	plain := probeSpec(nil)
	res2 := Run(plain)
	if res2.Obs != nil {
		t.Fatal("unprobed run grew a snapshot")
	}
	if res2.Flows["mp"].GoodputBps != Run(plain).Flows["mp"].GoodputBps {
		t.Fatal("unprobed runs not deterministic")
	}
}

// everyRunner is one small instance of each kind of spec the package runs:
// bulk flows on a canonical topology, a WAN download that ends at its FCT,
// the Clos flow mix, and web's finite flows over a bulk one. Each runs its
// one spec as cfg says and returns the numbers its experiment reports, so
// equal slices mean bit-equal results.
var everyRunner = []struct {
	name string
	run  func(cfg Config) []float64
}{
	{"Run", func(cfg Config) []float64 {
		return runOne(cfg, probeSpec(nil), func(res *Result) []float64 {
			return []float64{res.Flows["mp"].GoodputBps, res.Flows["sp"].GoodputBps}
		})
	}},
	{"DownloadSpec", func(cfg Config) []float64 {
		return runOne(cfg, DownloadSpec(1, "Ohio", "Boston", MPCCLoss, 1_000_000), func(res *Result) []float64 {
			return []float64{res.Flows["dl"].FCT.Seconds()}
		})
	}},
	{"dcSpec", func(cfg Config) []float64 {
		spec := dcSpec(3, MPCCLoss, smallDC())
		return runOne(cfg, spec, dcFCTs(spec.Flows))
	}},
	{"webSpec", func(cfg Config) []float64 {
		return runOne(cfg, webSpec(Config{Seed: 5, Duration: 4 * sim.Second, Warmup: sim.Second}, MPCCLoss), webStats)
	}},
}

// runOne runs one spec as cfg says and returns its reduced values.
func runOne(cfg Config, s Spec, reduce func(*Result) []float64) []float64 {
	return runSpecs(cfg, []Spec{s}, reduce)[0].mean
}

func TestProbedRunDoesNotPerturbResults(t *testing.T) {
	plain := Run(probeSpec(nil))
	probed := Run(probeSpec(obs.NewBus()))
	for name, fr := range plain.Flows {
		if probed.Flows[name].GoodputBps != fr.GoodputBps {
			t.Errorf("flow %s: goodput %v probed vs %v plain — probes changed the simulation",
				name, probed.Flows[name].GoodputBps, fr.GoodputBps)
		}
	}
	// The same through Config.Probes, for every runner.
	for _, r := range everyRunner {
		plain := r.run(Config{})
		probed := r.run(Config{Probes: func() *obs.Bus { return obs.NewBus() }})
		if !reflect.DeepEqual(plain, probed) {
			t.Errorf("%s: results %v probed vs %v plain — probes changed the simulation", r.name, probed, plain)
		}
	}
}

func traceRun(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	Run(probeSpec(obs.NewBus(jw)))
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceByteIdenticalAcrossRuns(t *testing.T) {
	a := traceRun(t)
	b := traceRun(t)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("fixed-seed traces differ between repeat runs")
	}
}

func TestTraceReplayMatchesSnapshot(t *testing.T) {
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	res := Run(probeSpec(obs.NewBus(jw)))
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	replayed := obs.NewRegistry()
	if err := obs.ReadTrace(&buf, func(e obs.Event) error {
		replayed.Record(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rs := replayed.Snapshot()
	for _, name := range res.Obs.SortedCounterNames() {
		if name == "sim.events_processed" || name == "sim.max_pending_timers" {
			continue
		}
		if rs.Counters[name] != res.Obs.Counters[name] {
			t.Errorf("counter %s: replayed %v, live %v", name, rs.Counters[name], res.Obs.Counters[name])
		}
	}
	for _, name := range res.Obs.SortedHistogramNames() {
		if rs.Histograms[name] != res.Obs.Histograms[name] {
			t.Errorf("histogram %s: replayed %+v, live %+v", name, rs.Histograms[name], res.Obs.Histograms[name])
		}
	}
	// The windowed series rebuild identically from the trace: serialize both
	// sides as a timeline dump and require byte equality.
	live := obs.AppendTimeline(nil, 0, res.Obs.Series)
	rep := obs.AppendTimeline(nil, 0, rs.Series)
	if !bytes.Equal(live, rep) {
		t.Errorf("replayed series differ from live:\nlive: %s\nreplayed: %s", live, rep)
	}
}

// TestConfigProbes: Config.Probes builds the bus of every run — once per
// simulation, on the worker that runs it, replicates included, in place of
// any bus the spec carried.
func TestConfigProbes(t *testing.T) {
	// Every runner calls the factory once per simulation, brackets its
	// events in one run-start/run-end pair, probes both its links and its
	// transport, snapshots the registry, and counts itself.
	for _, r := range everyRunner {
		kinds := map[obs.Kind]int{}
		var snaps []*obs.Snapshot
		calls := 0
		cfg := Config{Probes: func() *obs.Bus {
			calls++
			b := obs.NewBus()
			b.SetRegistry(obs.NewRegistry())
			b.AddSink(obs.SinkFunc(func(e obs.Event) {
				kinds[e.Kind]++
				if e.Kind == obs.KindRunEnd {
					snaps = append(snaps, b.Registry().Snapshot())
				}
			}))
			return b
		}}
		sims := SimsRun()
		r.run(cfg)
		if got := SimsRun() - sims; got != 1 {
			t.Errorf("%s: SimsRun advanced by %d, want 1", r.name, got)
		}
		if calls != 1 || kinds[obs.KindRunStart] != 1 || kinds[obs.KindRunEnd] != 1 {
			t.Errorf("%s: %d factory calls, %d run-start, %d run-end events; want 1 each",
				r.name, calls, kinds[obs.KindRunStart], kinds[obs.KindRunEnd])
		}
		if kinds[obs.KindQueueDepth] == 0 || kinds[obs.KindSchedPick] == 0 || kinds[obs.KindRTTSample] == 0 {
			t.Errorf("%s: %d queue-depth, %d sched-pick, %d rtt-sample events; want all > 0", r.name,
				kinds[obs.KindQueueDepth], kinds[obs.KindSchedPick], kinds[obs.KindRTTSample])
		}
		if len(snaps) != 1 || snaps[0].Counters["sched_picks"] == 0 || snaps[0].Gauges["sim.events_processed"] <= 0 {
			t.Errorf("%s: %d registry snapshots (want 1 with transport counters and engine gauges)", r.name, len(snaps))
		}
	}

	// Each replicate gets a bus of its own, which snapshots into its
	// Result; the spec's own bus hears nothing.
	calls, snapped, own := 0, 0, 0
	cfg := Config{Reps: 2, Workers: 1, Probes: func() *obs.Bus {
		calls++
		return obs.NewBus()
	}}
	runSpecs(cfg, []Spec{probeSpec(obs.NewBus(obs.SinkFunc(func(obs.Event) { own++ })))}, func(r *Result) []float64 {
		if r.Obs != nil {
			snapped++
		}
		return nil
	})
	if calls != 2 || snapped != 2 || own != 0 {
		t.Errorf("two replicates: %d factory calls, %d snapshots, %d events on the spec's bus; want 2, 2, 0",
			calls, snapped, own)
	}
}

// TestVivaceEventsCarryTheirSubflow: a multipath Vivace connection runs one
// controller per subflow, each alone in a rate-publication Group of its own,
// so a controller's Group id is 0 on every subflow. Its MI decisions and
// utility samples must still name the subflow it drives, as the transport's
// rate changes do.
func TestVivaceEventsCarryTheirSubflow(t *testing.T) {
	seen := map[obs.Kind]map[int32]int{}
	bus := obs.NewBus(obs.SinkFunc(func(e obs.Event) {
		switch e.Kind {
		case obs.KindMIDecision, obs.KindUtility, obs.KindRateChange:
			if e.Flow != "mp" {
				return
			}
			if seen[e.Kind] == nil {
				seen[e.Kind] = map[int32]int{}
			}
			seen[e.Kind][e.Subflow]++
		}
	}))
	s := probeSpec(bus)
	s.Proto = Vivace
	Run(s)
	for _, k := range []obs.Kind{obs.KindRateChange, obs.KindMIDecision, obs.KindUtility} {
		if len(seen[k]) != 2 || seen[k][0] == 0 || seen[k][1] == 0 {
			t.Errorf("%v events of the 2-subflow Vivace flow by subflow: %v, want both 0 and 1", k, seen[k])
		}
	}
}
