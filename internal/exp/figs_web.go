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
	for _, p := range []Protocol{MPCCLatency, MPCCLoss, LIA, OLIA, Balia} {
		bulkMbps, done, med, p95 := runWeb(cfg, p)
		t.AddRow(string(p), fmt.Sprintf("%.1f", bulkMbps),
			fmt.Sprint(done), fmt.Sprintf("%.0f", med*1e3), fmt.Sprintf("%.0f", p95*1e3))
	}
	return t
}

func runWeb(cfg Config, p Protocol) (bulkMbps float64, done int, median, p95 float64) {
	paths := [][]string{{"link1"}, {"link2"}}
	flows := []FlowSpec{{Name: "bulk", Proto: p, Paths: paths}}
	interval := 400 * sim.Millisecond
	for at := sim.Second; at < cfg.Duration-sim.Second; at += interval {
		flows = append(flows, FlowSpec{Name: fmt.Sprintf("short-%d", len(flows)),
			Proto: p, Paths: paths, StartAt: at, FileBytes: 100_000})
	}
	res := Run(Spec{Seed: cfg.Seed, Duration: cfg.Duration, Warmup: cfg.Warmup,
		Topo: topo.Fig3b(), Flows: flows})
	var fcts []float64
	for _, f := range flows[1:] {
		if fct := res.Flows[f.Name].FCT; fct >= 0 {
			fcts = append(fcts, fct.Seconds())
		}
	}
	return res.Flows["bulk"].GoodputBps / 1e6, len(fcts), stats.Median(fcts), stats.Percentile(fcts, 95)
}
