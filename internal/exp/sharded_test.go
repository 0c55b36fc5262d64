package exp

import (
	"bytes"
	"fmt"
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

// TestIdleComponentsReachHorizon: in a multi-engine world a component that
// runs out of events early — or never has any — still ends with its clock
// at the horizon, and the run-end marker is stamped there. A component whose
// flows are all finite, in a run of nothing but finite flows, stops at its
// last completion instead, and the marker carries the latest engine clock —
// not the first engine's, which here is the one that finishes first.
func TestIdleComponentsReachHorizon(t *testing.T) {
	const horizon = 600 * sim.Millisecond
	brief := FlowSpec{Name: "brief", Proto: MPCCLoss, Paths: [][]string{{"c0link1"}}, FileBytes: 3000}
	for _, tc := range []struct {
		name    string
		flows   []FlowSpec
		engines int
		// endsAtFCTOf names the flow at whose completion its engine and the
		// run must end, the first engine ending at the brief flow's; empty
		// means every engine and the run end at the horizon.
		endsAtFCTOf string
	}{
		// Three components: a 3 KB download that is over within a few RTTs
		// (first engine), a link no flow touches, and a bulk pair.
		{"bulk", []FlowSpec{brief,
			{Name: "bulk", Proto: MPCCLoss, Paths: [][]string{{"c1link1"}, {"c1link2"}}}}, 3, ""},
		// Two components of finite flows: the first engine stops at the brief
		// download's completion, the second, later, at the longer one's.
		{"finite", []FlowSpec{
			{Name: "brief", Proto: MPCCLoss, Paths: [][]string{{"c0link1"}, {"c0link2"}}, FileBytes: 3000},
			{Name: "longer", Proto: MPCCLoss, Paths: [][]string{{"c1link1"}, {"c1link2"}}, FileBytes: 30_000}}, 2, "longer"},
	} {
		for _, probed := range []bool{false, true} {
			var ends []sim.Time
			s := clustersSpec(2, 2, nil)
			if probed {
				s.Probes = obs.NewBus(obs.SinkFunc(func(e obs.Event) {
					if e.Kind == obs.KindRunEnd {
						ends = append(ends, e.At)
					}
				}))
			}
			s.Flows = tc.flows
			res := Run(s)
			briefFCT := res.Flows["brief"].FCT
			if briefFCT < 0 || briefFCT > horizon/2 {
				t.Fatalf("%s probed=%v: brief flow FCT %v; it should finish early", tc.name, probed, briefFCT)
			}
			end := horizon
			if tc.endsAtFCTOf != "" {
				if end = res.Flows[tc.endsAtFCTOf].FCT; end <= briefFCT || end >= horizon {
					t.Fatalf("%s probed=%v: %s flow FCT %v, want between the brief flow's %v and the horizon",
						tc.name, probed, tc.endsAtFCTOf, end, briefFCT)
				}
			}
			engines := map[*sim.Engine]bool{}
			for _, name := range res.Net.LinkNames() {
				eng := res.Net.Link(name).Engine()
				engines[eng] = true
				want := end
				if tc.endsAtFCTOf != "" && eng == res.Net.Link("c0link1").Engine() {
					want = briefFCT
				}
				if eng.Now() != want {
					t.Errorf("%s probed=%v: engine of %s stopped at %v, want %v", tc.name, probed, name, eng.Now(), want)
				}
			}
			if len(engines) != tc.engines {
				t.Fatalf("%s probed=%v: %d engines, want %d", tc.name, probed, len(engines), tc.engines)
			}
			if probed && (len(ends) != 1 || ends[0] != end) {
				t.Errorf("%s: run-end markers at %v, want one at %v", tc.name, ends, end)
			}
		}
	}
}

// TestShardsResolution pins the Spec.Shards / SetShards precedence:
// package default applies only when the spec is silent, and a negative
// spec value forces the legacy engine over the default.
func TestShardsResolution(t *testing.T) {
	defer SetShards(0)
	s := Spec{Duration: sim.Second}
	if got := s.shardWorkers(); got != 0 {
		t.Fatalf("silent spec, no default: workers=%d, want 0", got)
	}
	SetShards(4)
	if got := s.shardWorkers(); got != 4 {
		t.Fatalf("silent spec, default 4: workers=%d, want 4", got)
	}
	s.Shards = -1
	if got := s.shardWorkers(); got != 0 {
		t.Fatalf("negative spec must force legacy: workers=%d, want 0", got)
	}
	s.Shards = 2
	if got := s.shardWorkers(); got != 2 {
		t.Fatalf("explicit spec beats default: workers=%d, want 2", got)
	}
	s.Duration = 0
	if got := s.shardWorkers(); got != 0 {
		t.Fatalf("zero-duration run cannot shard: workers=%d, want 0", got)
	}
}
