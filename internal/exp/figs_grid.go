package exp

import (
	"fmt"

	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
)

// LinkConfig is one row of Table 1 applied to a single link.
type LinkConfig struct {
	BandwidthMbps float64
	LatencyMs     float64
	LossPct       float64
	BufferKB      int
}

// Table1Grid enumerates the 24 per-link configurations of Table 1.
func Table1Grid() []LinkConfig {
	var out []LinkConfig
	for _, bw := range []float64{50, 500} {
		for _, lat := range []float64{10, 100} {
			for _, loss := range []float64{0, 0.1, 0.001} {
				for _, buf := range []int{50, 700} {
					out = append(out, LinkConfig{bw, lat, loss, buf})
				}
			}
		}
	}
	return out
}

func applyLinkConfig(n *topo.Net, link string, c LinkConfig) {
	l := n.Link(link)
	l.SetRate(c.BandwidthMbps * 1e6)
	l.SetDelay(sim.FromSeconds(c.LatencyMs / 1e3))
	l.SetLoss(c.LossPct / 100)
	l.SetBuffer(c.BufferKB * 1000)
}

// GridResult carries the Fig. 14/15 ratio distributions.
type GridResult struct {
	Configs int
	// UtilRatio and JainRatio hold MPCC/<baseline> ratios per config.
	UtilRatio map[Protocol][]float64
	JainRatio map[Protocol][]float64
}

// GridBaselines are the comparison protocols of Figs. 14–15.
var GridBaselines = []Protocol{LIA, OLIA}

// ParameterGrid reproduces Figs. 14 (topology 3c) and 15 (topology 3d):
// MPCC-latency against LIA and OLIA over the Table-1 link-parameter grid.
// With cfg.Full it runs all 24² = 576 pairs; otherwise a deterministic
// 1-in-stride subsample. Every (link pair, protocol) simulation is
// enumerated up front — pair by pair in grid order, MPCC-latency then the
// GridBaselines — and the ratios are formed from the (utilization, Jain)
// points, each the mean over cfg.Reps replicates, in that order.
func ParameterGrid(cfg Config, build func() *topo.Topology, stride int) *GridResult {
	if cfg.Full {
		stride = 1
	}
	if stride < 1 {
		stride = 1
	}
	grid := Table1Grid()
	protos := append([]Protocol{MPCCLatency}, GridBaselines...)
	var specs []Spec
	idx := 0
	for _, c1 := range grid {
		for _, c2 := range grid {
			if idx++; (idx-1)%stride != 0 {
				continue
			}
			for _, p := range protos {
				specs = append(specs, cfg.spec(build(), p, func(n *topo.Net) {
					applyLinkConfig(n, "link1", c1)
					applyLinkConfig(n, "link2", c2)
				}))
			}
		}
	}
	// A point is the mean of the replicates' (utilization, Jain) pairs.
	points := runSpecs(cfg, specs, func(r *Result) []float64 { return []float64{r.Utilization, r.Jain} })
	res := &GridResult{
		Configs:   len(specs) / len(protos),
		UtilRatio: make(map[Protocol][]float64),
		JainRatio: make(map[Protocol][]float64),
	}
	for i := 0; i < len(points); i += len(protos) {
		mpcc := points[i].mean
		for bi, base := range GridBaselines {
			b := points[i+1+bi].mean
			res.UtilRatio[base] = append(res.UtilRatio[base], ratio(mpcc[0], b[0]))
			res.JainRatio[base] = append(res.JainRatio[base], ratio(mpcc[1], b[1]))
		}
	}
	return res
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		if a <= 0 {
			return 1
		}
		return 13 // the paper's plots clip around 13×
	}
	r := a / b
	if r > 13 {
		r = 13
	}
	return r
}

// Table renders the grid result in the paper's mean/median/5th/95th form.
func (g *GridResult) Table(title string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"ratio", "mean", "median", "p5", "p95"},
		Notes:  []string{fmt.Sprintf("%d link-pair configurations", g.Configs)},
	}
	for _, base := range GridBaselines {
		rows := []struct {
			name string
			vals []float64
		}{
			{"utilization MPCC/" + string(base), g.UtilRatio[base]},
			{"fairness MPCC/" + string(base), g.JainRatio[base]},
		}
		for _, row := range rows {
			s := stats.Summarize(row.vals)
			t.addRow([]string{row.name}, numCell("%.2f", s.Mean), numCell("%.2f", s.Median),
				numCell("%.2f", s.P5), numCell("%.2f", s.P95))
		}
	}
	return t
}
