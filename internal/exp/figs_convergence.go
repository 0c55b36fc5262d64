package exp

import "mpcc/internal/topo"

// Fig9Buffers is the deep-buffer sweep of Fig. 9 (KB, ≥ BDP).
var Fig9Buffers = []int{375, 500, 700, 1000}

// Fig9Protocols is the Fig. 9 lineup.
var Fig9Protocols = []Protocol{MPCCLatency, MPCCLoss, LIA, OLIA, Balia, WVegas, Reno, BBR}

// selfInducedLatency declares Fig. 9: two multipath connections share two
// links (topology 3e); as buffers grow past the BDP, loss-based protocols
// fill them and inflate RTT, while MPCC-latency keeps queues short.
func selfInducedLatency(cfg Config) sweep[int] {
	return sweep[int]{
		head: []string{"buffer_KB"}, rows: Fig9Buffers, label: kbLabel,
		protos: Fig9Protocols,
		spec: func(buf int, p Protocol) Spec {
			return cfg.spec(topo.Fig3e(), p, func(n *topo.Net) {
				n.Link("link1").SetBuffer(buf * 1000)
				n.Link("link2").SetBuffer(buf * 1000)
			})
		},
		metrics: []metric{{
			title:  "Fig 9 — mean self-induced latency vs buffer size (topology 3e), ms (±stddev)",
			format: "%.0f",
			value: func(r *Result) float64 {
				return (r.Flows["mp1"].LatencyMean + r.Flows["mp2"].LatencyMean) / 2 * 1e3
			},
			spread: func(r *Result) float64 {
				return (r.Flows["mp1"].LatencyStd + r.Flows["mp2"].LatencyStd) / 2 * 1e3
			},
		}},
	}
}

// Fig10Protocols is the Fig. 10 lineup.
var Fig10Protocols = []Protocol{MPCCLatency, MPCCLoss, LIA, OLIA, Balia, WVegas, Reno, BBR}

// convergenceSuite declares Fig. 10: Jain fairness index (10a) and
// normalized total goodput (10b) for each protocol on the five topologies,
// with BDP buffers everywhere (the conditions under which MPTCP converges).
func convergenceSuite(cfg Config) sweep[*topo.Topology] {
	return sweep[*topo.Topology]{
		head: []string{"protocol"}, byProto: true,
		rows:   topo.ConvergenceSuite(),
		label:  func(tp *topo.Topology) []string { return []string{tp.Name} },
		protos: Fig10Protocols,
		spec:   func(tp *topo.Topology, p Protocol) Spec { return cfg.spec(tp, p, nil) },
		metrics: []metric{
			{title: "Fig 10a — Jain fairness index per topology", format: "%.3f",
				value: func(r *Result) float64 { return r.Jain }},
			{title: "Fig 10b — total goodput / total capacity per topology", format: "%.3f",
				value: func(r *Result) float64 { return r.Utilization }},
		},
	}
}

// ObservationSinglePath probes the §7.2.5 observation on the OLIA topology
// (Fig. 4a): an uncoupled per-subflow single-path controller splits link 1
// with the single-path flow instead of vacating it — capacity the
// single-path flow cannot recover elsewhere. With one flow per class the
// loss shows up as unfairness (a squeezed single-path flow and a large
// mp-on-shared share); the paper's total-goodput collapse to 150 Mbps needs
// Khalili et al.'s multi-user variant of the topology.
func ObservationSinglePath(cfg Config) *Table {
	t := &Table{
		Title:  "§7.2.5 observation — total goodput on the OLIA topology (optimum 200 Mbps)",
		Header: []string{"protocol", "total_Mbps", "sp_Mbps", "mp_Mbps", "mp_on_shared_Mbps"},
	}
	var labels []string
	var specs []Spec
	for _, p := range []Protocol{MPCCLoss, LIA, OLIA, Reno, BBR} {
		labels = append(labels, string(p))
		specs = append(specs, cfg.spec(topo.Fig4a(), p, nil))
	}
	t.runRows(cfg, labels, specs, []column{mbpsCol, mbpsCol, mbpsCol, mbpsCol}, func(res *Result) []float64 {
		sp, mp := res.Flows["sp"], res.Flows["mp"]
		return []float64{(sp.GoodputBps + mp.GoodputBps) / 1e6, sp.GoodputBps / 1e6, mp.GoodputBps / 1e6, mp.SubflowGoodputBps[0] / 1e6}
	})
	return t
}
