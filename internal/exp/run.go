package exp

import (
	"slices"

	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
)

// FlowSpec declares one connection of a run.
type FlowSpec struct {
	Name      string
	Proto     Protocol
	Paths     [][]string // link names per subflow
	StartAt   sim.Time
	FileBytes int64 // 0 = bulk
	Attach    AttachOptions
	// PathTweak, if set, adjusts each freshly built path of this flow before
	// the connection attaches — the hook for ACK-path impairments (ack delay,
	// jitter, compression), which live on the Path rather than on links.
	PathTweak func(p *netem.Path)
}

// Spec declares one simulation run.
type Spec struct {
	Seed     int64
	Duration sim.Time
	Warmup   sim.Time // goodput measured after this offset (the paper omits 30 s)
	Topo     *topo.Topology
	// Probes, if set, is the observability bus for this run: every link,
	// transport connection, and controller emits into it, a queue-depth
	// sampler runs, and the registry snapshot lands in Result.Obs. It is the
	// one route to a run's bus: an experiment's runs get theirs from
	// Config.Probes, which runSpecs sets here per run. When nil,
	// observability is fully disabled — the run is byte- and
	// event-count-identical to one built before the obs layer existed. A bus
	// is per run: sharing one across runs accumulates their metrics into a
	// single registry.
	Probes *obs.Bus
	// Tweak adjusts link parameters (buffer, loss, bandwidth) after the
	// topology is built and may schedule mid-run changes on net.Eng.
	Tweak func(net *topo.Net)
	// Flows overrides the topology's flow list; when nil, Protos assigns a
	// protocol to each topology flow: the multipath protocol to multipath
	// flows and its SinglePathPeer to single-path ones.
	Flows []FlowSpec
	Proto Protocol // used when Flows is nil
	// SPProto overrides the single-path peer protocol (Figs. 12–13 use Cubic).
	SPProto Protocol
	// Shards selects space-parallel execution: the topology is partitioned
	// into interaction components (topo.PartitionLinks) and each component
	// runs on its own engine. Unprobed, up to Shards workers of the pool
	// advance the engines concurrently; probed, they are stepped in time
	// order on one goroutine, every event going to Probes as it fires, in
	// (engine time, component) order (DESIGN.md "Determinism guarantees").
	// Components share nothing, so the shard count only sets worker
	// parallelism — the partition, per-shard seeds, and event orders are
	// fixed by the topology — so any Shards >= 1 produces byte-identical
	// traces and snapshots, and on single-component topologies (every flow
	// interacting, e.g. the golden-trace figures) the output is additionally
	// byte-identical to the unsharded engine. Shards <= 0 runs the whole
	// topology on one engine. Sharded execution requires Duration > 0.
	Shards int
	// Churn, if set, overlays an open-loop session workload on the run:
	// connections arrive, transfer, and close under admission control (see
	// ChurnSpec). Churn forces the legacy single-engine path — its sessions
	// are created mid-run, invisible to the static flow partition sharding
	// is built on — so any Shards value still yields identical output.
	Churn *ChurnSpec
}

// FlowResult summarizes one connection after a run.
type FlowResult struct {
	GoodputBps        float64 // post-warmup mean
	SubflowGoodputBps []float64
	LatencyMean       float64 // seconds
	LatencyStd        float64
	FCT               sim.Time // -1 unless a File flow completed
	// Series is the per-bucket goodput in bits/s (100 ms buckets from t=0).
	Series []float64
	// SubflowSeries is the same per subflow.
	SubflowSeries [][]float64
}

// Result summarizes one run.
type Result struct {
	Flows map[string]*FlowResult
	// Utilization is total post-warmup goodput over total link capacity.
	Utilization float64
	// Jain is Jain's fairness index over per-flow goodputs.
	Jain float64
	// Net gives Tweak-adjusted access to the built network (inspection).
	Net *topo.Net
	// Conns gives post-run access to the transport connections, keyed by
	// flow name, so correctness oracles (internal/simtest) can audit
	// end-of-run transport state (per-subflow byte ledgers, failure-detector
	// state) against the network's link counters.
	Conns map[string]*transport.Connection
	// Obs is the run's metrics-registry snapshot (drops by cause,
	// retransmits, queue-depth percentiles, MI counts per phase, engine
	// gauges, windowed series). nil when the run had no probe bus.
	Obs *obs.Snapshot
	// Events is the number of simulation events the run processed, summed
	// over shard engines. Throughput benchmarks report it as events/op.
	Events uint64
	// Queue is what each tier of the engines' event queue did (inserts,
	// cancels, occupancy high-water marks), folded over shard engines:
	// counts sum, high-water marks keep the maximum.
	Queue sim.QueueStats
	// Churn holds the session ledger and FCT distribution of the run's
	// churn workload; nil when Spec.Churn was nil.
	Churn *ChurnStats
}

// flowsFor derives the flow specs from a topology and the spec's protocols.
func (s *Spec) flowsFor() []FlowSpec {
	if s.Flows != nil {
		return s.Flows
	}
	sp := s.SPProto
	if sp == "" {
		sp = s.Proto.SinglePathPeer()
	}
	var out []FlowSpec
	for _, f := range s.Topo.Flows {
		p := s.Proto
		if !f.Multipath() {
			p = sp
		}
		out = append(out, FlowSpec{Name: f.Name, Proto: p, Paths: f.Paths})
	}
	return out
}

// Run executes the spec and summarizes it: the declarative front of the
// world (world.go). When the spec selects sharding, each topology component
// gets its own engine; see Spec.Shards for the determinism contract.
func Run(s Spec) *Result {
	flows := s.flowsFor()
	// Unsharded, the whole topology is one component on one engine; sharded,
	// the components are those of the run's effective flows.
	workers := s.shardWorkers()
	groups := [][][]string{{s.Topo.Links}}
	if workers > 0 {
		groups = make([][][]string, len(flows))
		for i, f := range flows {
			groups[i] = f.Paths
		}
	}
	net, engines := topo.PartitionLinks(s.Topo.Links, groups).Build(s.Topo, s.Seed)
	w := newWorld(s.Seed, s.Probes, workers, engines)
	if s.Tweak != nil {
		s.Tweak(net)
	}
	w.start(s.Duration, net)
	// A run of nothing but finite transfers (and no churn to open more) ends
	// at the last completion: a rate-based controller would otherwise keep
	// its monitor intervals ticking to the horizon. Per engine, because
	// engines share no clock: left counts each one's unfinished transfers.
	var left []int
	if s.Churn == nil && len(flows) > 0 && !slices.ContainsFunc(flows, FlowSpec.bulk) {
		left = make([]int, len(engines))
	}
	conns := make(map[string]*transport.Connection, len(flows))
	for _, f := range flows {
		ps := net.Paths(f.Paths)
		if f.PathTweak != nil {
			for _, p := range ps {
				f.PathTweak(p)
			}
		}
		conn := w.attach(f.Name, f.Proto, ps, f.Attach, nil)
		if f.bulk() {
			conn.SetApp(transport.Bulk{}, nil)
		} else {
			conn.SetApp(transport.NewFile(f.FileBytes), stopAfterLast(left, engines, ps[0].Engine()))
		}
		conn.Start(f.StartAt)
		conns[f.Name] = conn
	}
	var churn *churnDriver
	if s.Churn != nil {
		churn = startChurn(w, &s, net)
	}
	res := &Result{Flows: make(map[string]*FlowResult, len(conns)), Net: net, Conns: conns}
	res.Obs, res.Events, res.Queue = w.run(s.Duration)
	if churn != nil {
		res.Churn = churn.snapshot()
	}
	var goodputs []float64
	total := 0.0
	for name, conn := range conns {
		fr := &FlowResult{FCT: conn.FCT()}
		fr.GoodputBps = conn.MeanGoodputBps(s.Warmup, s.Duration)
		_, fr.LatencyStd = conn.MeanLatency()
		fr.LatencyMean = conn.MeanLatencySince(s.Warmup)
		fr.Series = scale(conn.Goodput().Rates(), 8)
		for _, sf := range conn.Subflows() {
			fr.SubflowGoodputBps = append(fr.SubflowGoodputBps,
				8*sf.Goodput().MeanRateSince(s.Warmup, s.Duration))
			fr.SubflowSeries = append(fr.SubflowSeries, scale(sf.Goodput().Rates(), 8))
		}
		res.Flows[name] = fr
		goodputs = append(goodputs, fr.GoodputBps)
		total += fr.GoodputBps
	}
	if capacity := net.TotalCapacity(); capacity > 0 {
		res.Utilization = total / capacity
	}
	res.Jain = stats.JainIndex(goodputs)
	return res
}

func (f FlowSpec) bulk() bool { return f.FileBytes <= 0 }

// stopAfterLast counts one more finite flow on eng and returns its
// completion callback: the completion that brings eng's count to zero stops
// the engine, from inside that event. A nil left means the rule does not
// apply to the run; nothing is then allocated or called.
func stopAfterLast(left []int, engines []*sim.Engine, eng *sim.Engine) func(sim.Time) {
	if left == nil {
		return nil
	}
	n := &left[slices.Index(engines, eng)]
	*n++
	return func(sim.Time) {
		if *n--; *n == 0 {
			eng.Stop()
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
