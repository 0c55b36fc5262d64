package exp

import (
	"fmt"
	"math/rand"
	"slices"

	"mpcc/internal/fairness"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
)

// Fig7Protocols is the protocol lineup of Figs. 7–8.
var Fig7Protocols = []Protocol{MPCCLatency, Reno, LIA, OLIA, Balia, WVegas}

// ChangingConditions reproduces Figs. 7 and 8: on topology 3c, link 1's
// bandwidth, latency and loss are re-randomized every epoch (the paper uses
// 30 s epochs over 1400 s; epochDur scales that down) and each protocol's
// tracking of the optimum is measured. It returns the Fig. 7 table (the
// multipath subflow on link 1 against the optimal line, its bandwidth) and
// the Fig. 8 table (the single-path flow against its LMMF fair share): one
// row per epoch, then the mean absolute error in Mbps.
func ChangingConditions(cfg Config, epochs int, epochDur sim.Time) []*Table {
	return changingConditions(cfg, epochs, epochDur, Fig7Protocols)
}

func changingConditions(cfg Config, epochs int, epochDur sim.Time, protos []Protocol) []*Table {
	// Pre-draw the epoch conditions once so every protocol, and every
	// replicate, faces the same trace (as in the paper's figure).
	rng := rand.New(rand.NewSource(cfg.Seed))
	type cond struct {
		bw   float64
		lat  sim.Time
		loss float64
	}
	conds := make([]cond, epochs)
	for i := range conds {
		conds[i] = cond{
			bw:   (10 + 90*rng.Float64()) * 1e6,
			lat:  sim.FromSeconds(0.010 + 0.090*rng.Float64()),
			loss: 0.0001 + 0.0009*rng.Float64(),
		}
	}
	opt, fair := make([]float64, epochs), make([]float64, epochs)
	for i, c := range conds {
		opt[i] = c.bw / 1e6
		// LMMF fair share for the SP flow given link-1 bandwidth c.bw.
		alloc, err := fairness.LMMF(&fairness.Network{
			Capacity: []float64{c.bw / 1e6, 100},
			Conns:    [][]int{{0, 1}, {1}},
		})
		if err != nil {
			panic(err)
		}
		fair[i] = alloc.Totals[1]
	}

	specs := make([]Spec, len(protos))
	for i, p := range protos {
		specs[i] = Spec{
			Seed: cfg.Seed, Duration: sim.Time(epochs) * epochDur, Warmup: 0,
			Topo:  topo.Fig3c(),
			Proto: p,
			Tweak: func(n *topo.Net) {
				l := n.Link("link1")
				for i, c := range conds {
					l.Engine().At(sim.Time(i)*epochDur, func() {
						l.SetRate(c.bw)
						l.SetDelay(c.lat)
						l.SetLoss(c.loss)
					})
				}
			},
		}
	}
	// A run reduces to the subflow's per-epoch goodput and its mean absolute
	// error, then the same for the single-path flow.
	runs := runSpecs(cfg, specs, func(res *Result) []float64 {
		mpSeries := res.Flows["mp"].SubflowSeries[0] // subflow on link1
		spSeries := res.Flows["sp"].Series
		bucketsPerEpoch := int(epochDur / stats.DefaultBucket)
		out := make([]float64, 2*(epochs+1))
		mp, sp := out[:epochs], out[epochs+1:2*epochs+1]
		for i := 0; i < epochs; i++ {
			// Skip the first half of each epoch (adaptation transient).
			lo := i*bucketsPerEpoch + bucketsPerEpoch/2
			hi := (i + 1) * bucketsPerEpoch
			mp[i] = stats.Mean(window(mpSeries, lo, hi)) / 1e6
			sp[i] = stats.Mean(window(spSeries, lo, hi)) / 1e6
			out[epochs] += abs(mp[i] - opt[i])
			out[2*epochs+1] += abs(sp[i] - fair[i])
		}
		out[epochs] /= float64(epochs)
		out[2*epochs+1] /= float64(epochs)
		return out
	})
	// table renders one per-epoch comparison: the reference line, then each
	// protocol's series (values off on), and a closing row of the mean
	// absolute errors.
	table := func(title, refName string, ref []float64, off int) *Table {
		t := &Table{Title: title, Header: append([]string{"epoch", refName}, protoNames(protos)...)}
		mbpsRow := func(label string, ref float64, k int) {
			row := []cell{numCell("%.1f", ref)}
			for _, f := range runs {
				row = append(row, f.cell(k, mbpsCol))
			}
			t.addRow([]string{label}, row...)
		}
		for i := range ref {
			mbpsRow(fmt.Sprint(i), ref[i], off+i)
		}
		mbpsRow("mean |err|", 0, off+epochs)
		return t
	}
	return []*Table{
		table("Fig 7 — multipath subflow on changing link 1 vs optimum, Mbps", "OPT", opt, 0),
		table("Fig 8 — single-path flow vs LMMF fair share under changing conditions, Mbps", "FAIR", fair, epochs+1),
	}
}

// ConvergenceTrace reproduces Fig. 11: per-subflow rate timeseries of
// MPCC-latency and Balia on topology 3c, plus a rate-jitter summary (the
// paper's "comparable convergence rates, lower rate-jitter").
func ConvergenceTrace(cfg Config) *Table {
	t := &Table{
		Title:  "Fig 11 — convergence on topology 3c: steady-state mean (Mbps) and jitter (stddev, Mbps)",
		Header: []string{"protocol", "flow", "mean", "jitter"},
	}
	specs := []Spec{cfg.spec(topo.Fig3c(), MPCCLatency, nil), cfg.spec(topo.Fig3c(), Balia, nil)}
	// Topology 3c's flows: each subflow of the multipath one, then the
	// single-path one; a run reduces to the mean and stddev of each.
	flows := []string{"mp-sf1", "mp-sf2", "sp"}
	warmBuckets := int(cfg.Warmup / stats.DefaultBucket)
	for i, f := range runSpecs(cfg, specs, func(res *Result) (out []float64) {
		for _, series := range append(slices.Clip(res.Flows["mp"].SubflowSeries), res.Flows["sp"].Series) {
			post := tailMbps(series, warmBuckets)
			out = append(out, stats.Mean(post), stats.Stddev(post))
		}
		return out
	}) {
		for j, flow := range flows {
			t.addRow([]string{string(specs[i].Proto), flow}, f.cells(2*j, mbpsCol, mbpsCol)...)
		}
	}
	return t
}

func tailMbps(series []float64, from int) []float64 {
	if from >= len(series) {
		return nil
	}
	out := make([]float64, 0, len(series)-from)
	for _, v := range series[from:] {
		out = append(out, v/1e6)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
