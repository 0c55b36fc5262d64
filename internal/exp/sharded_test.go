package exp

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

// clustersSpec is a genuinely multi-component workload: k independent
// Fig3c-style clusters, each its own shard.
func clustersSpec(k, shards int, bus *obs.Bus) Spec {
	return Spec{
		Seed:     23,
		Duration: 600 * sim.Millisecond,
		Topo:     topo.Clusters(k),
		Proto:    MPCCLoss,
		Probes:   bus,
		Shards:   shards,
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

// finiteClustersSpec is clustersSpec with every flow a 20 KB transfer, so
// each component's engine stops at its own last completion.
func finiteClustersSpec(k, shards int, bus *obs.Bus) Spec {
	s := clustersSpec(k, shards, bus)
	s.Flows = s.flowsFor()
	for i := range s.Flows {
		s.Flows[i].FileBytes = 20_000
	}
	return s
}

// TestShardedClustersIdentity: on a multi-component topology, every shard
// count must produce the identical trace, snapshot, and per-flow results —
// worker parallelism can never leak into the output — for bulk flows that
// run to the horizon and for finite ones whose engines stop one by one.
func TestShardedClustersIdentity(t *testing.T) {
	type outcome struct {
		trace []byte
		hash  string
		res   *Result
	}
	for _, tc := range []struct {
		name  string
		spec  func(shards int, bus *obs.Bus) Spec
		flows int
	}{
		{"bulk", func(shards int, bus *obs.Bus) Spec { return clustersSpec(3, shards, bus) }, 6},
		{"finite", func(shards int, bus *obs.Bus) Spec { return finiteClustersSpec(2, shards, bus) }, 4},
	} {
		run := func(shards int) outcome {
			var buf bytes.Buffer
			jw := obs.NewJSONLWriter(&buf)
			hs := obs.NewHashSink()
			res := Run(tc.spec(shards, obs.NewBus(jw, hs)))
			if err := jw.Flush(); err != nil {
				t.Fatal(err)
			}
			return outcome{trace: buf.Bytes(), hash: hs.Sum(), res: res}
		}
		base := run(1)
		if len(base.trace) == 0 {
			t.Fatalf("%s: sharded run produced an empty trace", tc.name)
		}
		if len(base.res.Flows) != tc.flows {
			t.Fatalf("%s: expected %d flows, got %d", tc.name, tc.flows, len(base.res.Flows))
		}
		for _, shards := range []int{2, 3, 4, 8} {
			got := run(shards)
			if got.hash != base.hash || !bytes.Equal(got.trace, base.trace) {
				t.Fatalf("%s: shards=%d trace diverges from shards=1: %s", tc.name, shards, firstDiff(got.trace, base.trace))
			}
			if got.res.Events != base.res.Events {
				t.Fatalf("%s: shards=%d processed %d events, shards=1 processed %d", tc.name, shards, got.res.Events, base.res.Events)
			}
			for name, fr := range base.res.Flows {
				if g := got.res.Flows[name]; g == nil || g.GoodputBps != fr.GoodputBps || g.FCT != fr.FCT {
					t.Fatalf("%s: shards=%d flow %s goodput or FCT differs", tc.name, shards, name)
				}
			}
			if fmt.Sprint(got.res.Obs.SortedCounterNames()) != fmt.Sprint(base.res.Obs.SortedCounterNames()) {
				t.Fatalf("%s: shards=%d snapshot counter set differs", tc.name, shards)
			}
		}
		// Sharded runs on multi-component topologies genuinely use distinct
		// engines per component (different seeds); sanity-check they did work.
		if base.res.Events == 0 {
			t.Fatalf("%s: no events processed", tc.name)
		}
	}
}

// TestUnprobedShardCountsAgree: an unprobed multi-component run advances its
// engines on the worker pool, concurrently from two shard workers up — the
// race detector's view of the pool. Every shard count must give the same
// results, for bulk flows and for finite ones whose engines stop one by one.
func TestUnprobedShardCountsAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec func(shards int) Spec
	}{
		{"bulk", func(shards int) Spec { return clustersSpec(3, shards, nil) }},
		{"finite", func(shards int) Spec { return finiteClustersSpec(2, shards, nil) }},
	} {
		base := Run(tc.spec(1))
		for _, shards := range []int{2, 3, 4, 8} {
			got := Run(tc.spec(shards))
			if got.Events != base.Events {
				t.Fatalf("%s: shards=%d processed %d events, shards=1 processed %d", tc.name, shards, got.Events, base.Events)
			}
			for name, fr := range base.Flows {
				g := got.Flows[name]
				if g == nil || math.Float64bits(g.GoodputBps) != math.Float64bits(fr.GoodputBps) || g.FCT != fr.FCT ||
					!slices.Equal(g.SubflowGoodputBps, fr.SubflowGoodputBps) {
					t.Fatalf("%s: shards=%d flow %s differs from shards=1", tc.name, shards, name)
				}
			}
		}
	}
}

// TestShardedStreamIsPerClusterLive pins what the multi-engine stream is:
// the engines' firings in (engine time, component) order, each event
// emitted as it happens. So adding a cluster
// to a run moves no line of the others — each component keeps its name and
// its sim.ShardSeed — and every event but utility, which an MI stamps with
// its own end, comes in (time, cluster) order.
func TestShardedStreamIsPerClusterLive(t *testing.T) {
	const k = 2
	for _, tc := range []struct {
		name string
		spec func(k int, bus *obs.Bus) Spec
	}{
		{"bulk", func(k int, bus *obs.Bus) Spec { return clustersSpec(k, 2, bus) }},
		{"finite", func(k int, bus *obs.Bus) Spec { return finiteClustersSpec(k, 2, bus) }},
	} {
		// perCluster runs Clusters(n) and splits its trace into each
		// cluster's lines: topo.Clusters gives cluster c links 2c and 2c+1
		// and flows 2c and 2c+1.
		perCluster := func(n int) [][]string {
			var buf bytes.Buffer
			jw := obs.NewJSONLWriter(&buf)
			s := tc.spec(n, obs.NewBus(jw))
			Run(s)
			if err := jw.Flush(); err != nil {
				t.Fatal(err)
			}
			cluster := map[string]int{}
			for i, l := range s.Topo.Links {
				cluster[l] = i / 2
			}
			for i, f := range s.Topo.Flows {
				cluster[f.Name] = i / 2
			}
			lines := make([][]string, n)
			var lastAt sim.Time
			lastC := 0
			for _, line := range strings.SplitAfter(buf.String(), "\n") {
				if line == "" {
					continue
				}
				e, err := obs.ParseEvent([]byte(line))
				if err != nil {
					t.Fatal(err)
				}
				name := e.Flow
				if name == "" {
					name = e.Link
				}
				c, ok := cluster[name]
				if !ok {
					continue
				}
				lines[c] = append(lines[c], line)
				if e.Kind == obs.KindUtility {
					continue
				}
				if e.At < lastAt || e.At == lastAt && c < lastC {
					t.Fatalf("%s: Clusters(%d): %q comes after cluster %d's event at %v", tc.name, n, line, lastC, lastAt)
				}
				lastAt, lastC = e.At, c
			}
			return lines
		}
		small, large := perCluster(k), perCluster(k+1)
		for c := range small {
			if len(small[c]) == 0 {
				t.Fatalf("%s: cluster %d emitted nothing", tc.name, c)
			}
			if !slices.Equal(small[c], large[c]) {
				a, b := strings.Join(small[c], ""), strings.Join(large[c], "")
				t.Fatalf("%s: cluster %d's lines change when cluster %d joins: %s", tc.name, c, k, firstDiff([]byte(b), []byte(a)))
			}
		}
	}
}

// TestIdleComponentsReachHorizon: in a multi-engine world a component that
// runs out of events early — or never has any — still ends with its clock
// at the horizon, and the run-end marker is stamped there, even though the
// first engine is the one that goes idle.
func TestIdleComponentsReachHorizon(t *testing.T) {
	const horizon = 600 * sim.Millisecond
	for _, probed := range []bool{false, true} {
		// Three components: a 3 KB download that is over within a few RTTs
		// (first engine), a link no flow touches, and a bulk pair.
		res, ends := runClusters(probed, []FlowSpec{
			{Name: "brief", Proto: MPCCLoss, Paths: [][]string{{"c0link1"}}, FileBytes: 3000},
			{Name: "bulk", Proto: MPCCLoss, Paths: [][]string{{"c1link1"}, {"c1link2"}}},
		})
		if fct := res.Flows["brief"].FCT; fct < 0 || fct > horizon/2 {
			t.Fatalf("probed=%v: brief flow FCT %v; it should finish early", probed, fct)
		}
		engines := map[*sim.Engine]bool{}
		for _, name := range res.Net.LinkNames() {
			eng := res.Net.Link(name).Engine()
			engines[eng] = true
			if eng.Now() != horizon {
				t.Errorf("probed=%v: engine of %s stopped at %v, want %v", probed, name, eng.Now(), horizon)
			}
		}
		if len(engines) != 3 {
			t.Fatalf("probed=%v: %d engines, want 3", probed, len(engines))
		}
		if probed && (len(ends) != 1 || ends[0] != horizon) {
			t.Errorf("run-end markers at %v, want one at %v", ends, horizon)
		}
	}
}

// TestFiniteComponentsStopAtTheirLastFCT: in a run of nothing but finite
// flows each engine stops at the last completion among its own flows, and
// the run-end marker carries the latest engine clock — not the first
// engine's, which here is the one that finishes first.
func TestFiniteComponentsStopAtTheirLastFCT(t *testing.T) {
	for _, probed := range []bool{false, true} {
		res, ends := runClusters(probed, []FlowSpec{
			{Name: "brief", Proto: MPCCLoss, Paths: [][]string{{"c0link1"}, {"c0link2"}}, FileBytes: 3000},
			{Name: "longer", Proto: MPCCLoss, Paths: [][]string{{"c1link1"}, {"c1link2"}}, FileBytes: 30_000},
		})
		brief, longer := res.Flows["brief"].FCT, res.Flows["longer"].FCT
		if brief < 0 || longer <= brief {
			t.Fatalf("probed=%v: FCTs %v and %v, want the brief flow to finish first", probed, brief, longer)
		}
		for link, want := range map[string]sim.Time{"c0link1": brief, "c1link1": longer} {
			if now := res.Net.Link(link).Engine().Now(); now != want {
				t.Errorf("probed=%v: engine of %s stopped at %v, want its last FCT %v", probed, link, now, want)
			}
		}
		if probed && (len(ends) != 1 || ends[0] != longer) {
			t.Errorf("run-end markers at %v, want one at %v", ends, longer)
		}
	}
}

// runClusters runs the flows on two clusters, two shard workers, and
// returns the result with the times of the run-end markers a probed run
// emitted.
func runClusters(probed bool, flows []FlowSpec) (res *Result, ends []sim.Time) {
	s := clustersSpec(2, 2, nil)
	if probed {
		s.Probes = obs.NewBus(obs.SinkFunc(func(e obs.Event) {
			if e.Kind == obs.KindRunEnd {
				ends = append(ends, e.At)
			}
		}))
	}
	s.Flows = flows
	res = Run(s)
	return res, ends
}

// TestShardsResolution pins how Spec.Shards resolves: zero or negative
// runs one engine, a positive value shards, and a run without a horizon
// cannot shard.
func TestShardsResolution(t *testing.T) {
	s := Spec{Duration: sim.Second}
	if got := s.shardWorkers(); got != 0 {
		t.Fatalf("silent spec: workers=%d, want 0", got)
	}
	s.Shards = -1
	if got := s.shardWorkers(); got != 0 {
		t.Fatalf("negative spec: workers=%d, want 0", got)
	}
	s.Shards = 2
	if got := s.shardWorkers(); got != 2 {
		t.Fatalf("explicit spec: workers=%d, want 2", got)
	}
	s.Duration = 0
	if got := s.shardWorkers(); got != 0 {
		t.Fatalf("zero-duration run cannot shard: workers=%d, want 0", got)
	}
}
