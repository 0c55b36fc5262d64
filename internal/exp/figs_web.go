package exp

import (
	"fmt"

	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
)

// WebWorkload is an extension beyond the paper's evaluation (§9 calls for
// "additional measurements of MPCC's performance under other traffic
// conditions"): web-like traffic on the two-link access topology — one
// long-lived multipath bulk transfer plus a Poisson arrival process of
// short multipath downloads — measuring both the background goodput and the
// short flows' completion times.
func WebWorkload(cfg Config) *Table {
	t := &Table{
		Title:  "Extension §9 — web-like short flows over a busy access link (topology 3b links)",
		Header: []string{"protocol", "bulk_Mbps", "short_done", "fct_median_ms", "fct_p95_ms"},
		Notes: []string{
			"short flows: 100 KB multipath downloads arriving every 400 ms",
			"the paper predicts MPCC trades short-flow FCT for long-flow throughput (§7.4)",
		},
	}
	var labels []string
	var specs []Spec
	for _, p := range []Protocol{MPCCLatency, MPCCLoss, LIA, OLIA, Balia} {
		labels, specs = append(labels, string(p)), append(specs, webSpec(cfg, p))
	}
	// FCTs of a run that completed no short flow print 0, as a one-run
	// table of it always has.
	ms := column{format: "%.0f", missing: "0"}
	cols := []column{mbpsCol, countCol, ms, ms}
	t.runRows(cfg, labels, specs, cols, webStats)
	return t
}

// webSpec declares the web-like run: the bulk flow plus one short download
// every 400 ms from second 1 to one second before the end.
func webSpec(cfg Config, p Protocol) Spec {
	paths := [][]string{{"link1"}, {"link2"}}
	flows := []FlowSpec{{Name: "bulk", Proto: p, Paths: paths}}
	interval := 400 * sim.Millisecond
	for at := sim.Second; at < cfg.Duration-sim.Second; at += interval {
		flows = append(flows, FlowSpec{Name: fmt.Sprintf("short-%d", len(flows)),
			Proto: p, Paths: paths, StartAt: at, FileBytes: 100_000})
	}
	s := cfg.spec(topo.Fig3b(), p, nil)
	s.Flows = flows
	return s
}

// webStats reduces a webSpec run to the bulk goodput in Mbps, then the
// short flows' completion count and FCT median and p95 in milliseconds (NaN
// when none completed).
func webStats(res *Result) []float64 {
	var fcts []float64
	for i := 1; i < len(res.Flows); i++ {
		if fct := res.Flows[fmt.Sprintf("short-%d", i)].FCT; fct >= 0 {
			fcts = append(fcts, fct.Seconds())
		}
	}
	return append([]float64{res.Flows["bulk"].GoodputBps / 1e6, float64(len(fcts))},
		ifAny(len(fcts), stats.Median(fcts)*1e3, stats.Percentile(fcts, 95)*1e3)...)
}
