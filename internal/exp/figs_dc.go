package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
)

// DCProtocols is the Fig. 19 lineup.
var DCProtocols = []Protocol{MPCCLatency, MPCCLoss, Cubic, LIA, OLIA, Balia, WVegas}

// DCConfig scales the Fig. 19 workload. The paper ran 15×10GB + 35×10MB
// flows per host plus a 10KB flow per host per second for a minute on a
// 25 Gbps fabric; the default here scales bandwidth 100× down and the
// workload accordingly, keeping the fabric congested for the whole run so
// the long flows experience the sustained contention that drives the
// paper's result (DESIGN.md).
type DCConfig struct {
	LongFlows   int   // per host
	LongBytes   int64 //
	MedFlows    int   // per host
	MedBytes    int64
	ShortEvery  sim.Time // one short flow per host per interval
	ShortBytes  int64
	ShortFor    sim.Time // how long short flows keep arriving
	Duration    sim.Time
	SubflowsPer int
}

// DefaultDCConfig returns the scaled workload.
func DefaultDCConfig() DCConfig {
	return DCConfig{
		LongFlows: 2, LongBytes: 50_000_000,
		MedFlows: 4, MedBytes: 1_000_000,
		ShortEvery: 500 * sim.Millisecond, ShortBytes: 10_000, ShortFor: 4 * sim.Second,
		Duration:    12 * sim.Second,
		SubflowsPer: 3,
	}
}

// FCTClass summarizes flow completion times of one size class.
type FCTClass struct {
	Done, Started int
	Stats         stats.Summary // seconds, completed flows only
}

// DataCenterFCT reproduces Fig. 19 on the Fig. 18 Clos testbed: every flow
// is a 3-subflow multipath connection over ECMP-spread spine paths; flow
// completion times are collected per size class, one table of percentiles
// each. One simulation per protocol, all at the same seed and so over the
// same flow set.
func DataCenterFCT(cfg Config, dc DCConfig) []*Table {
	specs := make([]Spec, len(DCProtocols))
	for i, p := range DCProtocols {
		specs[i] = dcSpec(cfg.Seed, p, dc)
	}
	classes := runSpecs(specs, func(r *Result) map[string]FCTClass { return dcClasses(specs[0].Flows, r) })
	var tabs []*Table
	for _, class := range []string{"short", "medium", "long"} {
		t := &Table{
			Title:  fmt.Sprintf("Fig 19 — FCT on the Clos testbed, %s flows, seconds", class),
			Header: []string{"protocol", "done/started", "mean", "p1", "p5", "median", "p95", "p99"},
		}
		for i, p := range DCProtocols {
			c := classes[i][class]
			row := []string{string(p), fmt.Sprintf("%d/%d", c.Done, c.Started)}
			for _, v := range []float64{c.Stats.Mean, c.Stats.P1, c.Stats.P5, c.Stats.Median, c.Stats.P95, c.Stats.P99} {
				row = append(row, fmt.Sprintf("%.4f", v))
			}
			t.AddRow(row...)
		}
		tabs = append(tabs, t)
	}
	return tabs
}

// dcSpec declares the Fig. 19 run for one protocol: per host, the long and
// the medium flows from t = 0 and one short flow per interval, each to a
// destination drawn here, at declaration time, from a generator of its own
// seeded like the engine's. Flows are named "<class>-<n>", n counting every
// flow of the run.
func dcSpec(seed int64, p Protocol, dc DCConfig) Spec {
	var clos topo.Clos
	rng := rand.New(rand.NewSource(seed))
	attach := AttachOptions{
		// DC stacks use a much lower minimum RTO than the WAN default.
		ConnOptions: []transport.ConnOption{transport.WithMinRTO(10 * sim.Millisecond)},
		// Start rate-based flows at a rate matched to the fabric.
		InitialRateBps: 50e6,
	}
	var flows []FlowSpec
	start := func(src int, bytes int64, class string, at sim.Time) {
		dst := rng.Intn(topo.ClosHosts - 1)
		if dst >= src {
			dst++
		}
		flows = append(flows, FlowSpec{
			Name: fmt.Sprintf("%s-%d", class, len(flows)), Proto: p,
			Paths:   clos.SubflowPaths(src, dst, dc.SubflowsPer),
			StartAt: at, FileBytes: bytes, Attach: attach,
		})
	}
	for h := 0; h < topo.ClosHosts; h++ {
		for i := 0; i < dc.LongFlows; i++ {
			start(h, dc.LongBytes, "long", 0)
		}
		for i := 0; i < dc.MedFlows; i++ {
			start(h, dc.MedBytes, "medium", 0)
		}
		for at := dc.ShortEvery; at <= dc.ShortFor; at += dc.ShortEvery {
			start(h, dc.ShortBytes, "short", at)
		}
	}
	return Spec{Seed: seed, Duration: dc.Duration, Topo: clos.Topology(), Tweak: clos.Tweak, Flows: flows}
}

// dcClasses reads a dcSpec run: the FCTs of each size class, in the
// declaration order of flows.
func dcClasses(flows []FlowSpec, r *Result) map[string]FCTClass {
	fcts := map[string][]float64{"short": nil, "medium": nil, "long": nil}
	started := map[string]int{}
	for _, f := range flows {
		class, _, _ := strings.Cut(f.Name, "-")
		started[class]++
		if fct := r.Flows[f.Name].FCT; fct >= 0 {
			fcts[class] = append(fcts[class], fct.Seconds())
		}
	}
	res := make(map[string]FCTClass, len(fcts))
	for class, ts := range fcts {
		res[class] = FCTClass{Done: len(ts), Started: started[class], Stats: stats.Summarize(ts)}
	}
	return res
}
