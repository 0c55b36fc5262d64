package exp

import (
	"fmt"
	"math/rand"

	"mpcc/internal/fairness"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
)

// ChangingResult carries the Fig. 7/8 timeseries.
type ChangingResult struct {
	// Per epoch: the optimal (link-1 bandwidth) line and each protocol's
	// multipath-subflow-on-link-1 goodput (Fig. 7), plus the single-path
	// flow's goodput and LMMF fair share (Fig. 8).
	Epochs     []int
	OptMbps    []float64
	FairMbps   []float64
	MPSubflow  map[Protocol][]float64
	SPGoodput  map[Protocol][]float64
	TrackError map[Protocol]float64 // mean |subflow − opt| in Mbps
	FairError  map[Protocol]float64 // mean |sp − fair share| in Mbps

	protos []Protocol // the lineup that ran, in table-column order
}

// Fig7Protocols is the protocol lineup of Figs. 7–8.
var Fig7Protocols = []Protocol{MPCCLatency, Reno, LIA, OLIA, Balia, WVegas}

// ChangingConditions reproduces Figs. 7 and 8: on topology 3c, link 1's
// bandwidth, latency and loss are re-randomized every epoch (the paper uses
// 30 s epochs over 1400 s; epochDur scales that down) and each protocol's
// tracking of the optimum is measured.
func ChangingConditions(cfg Config, epochs int, epochDur sim.Time) *ChangingResult {
	return changingConditions(cfg, epochs, epochDur, Fig7Protocols)
}

func changingConditions(cfg Config, epochs int, epochDur sim.Time, protos []Protocol) *ChangingResult {
	r := &ChangingResult{
		protos:     protos,
		MPSubflow:  make(map[Protocol][]float64),
		SPGoodput:  make(map[Protocol][]float64),
		TrackError: make(map[Protocol]float64),
		FairError:  make(map[Protocol]float64),
	}
	// Pre-draw the epoch conditions once so every protocol faces the same
	// trace (as in the paper's figure).
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
	for i, c := range conds {
		r.Epochs = append(r.Epochs, i)
		r.OptMbps = append(r.OptMbps, c.bw/1e6)
		// LMMF fair share for the SP flow given link-1 bandwidth c.bw.
		alloc, err := fairness.LMMF(&fairness.Network{
			Capacity: []float64{c.bw / 1e6, 100},
			Conns:    [][]int{{0, 1}, {1}},
		})
		if err != nil {
			panic(err)
		}
		r.FairMbps = append(r.FairMbps, alloc.Totals[1])
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
	type tracking struct {
		mp, sp            []float64
		trackErr, fairErr float64
	}
	for i, tr := range runSpecs(specs, func(res *Result) (tr tracking) {
		mpSeries := res.Flows["mp"].SubflowSeries[0] // subflow on link1
		spSeries := res.Flows["sp"].Series
		bucketsPerEpoch := int(epochDur / stats.DefaultBucket)
		for i := 0; i < epochs; i++ {
			// Skip the first half of each epoch (adaptation transient).
			lo := i*bucketsPerEpoch + bucketsPerEpoch/2
			hi := (i + 1) * bucketsPerEpoch
			tr.mp = append(tr.mp, stats.Mean(window(mpSeries, lo, hi))/1e6)
			tr.sp = append(tr.sp, stats.Mean(window(spSeries, lo, hi))/1e6)
			tr.trackErr += abs(tr.mp[i] - r.OptMbps[i])
			tr.fairErr += abs(tr.sp[i] - r.FairMbps[i])
		}
		return tr
	}) {
		p := protos[i]
		r.MPSubflow[p] = tr.mp
		r.SPGoodput[p] = tr.sp
		r.TrackError[p] = tr.trackErr / float64(epochs)
		r.FairError[p] = tr.fairErr / float64(epochs)
	}
	return r
}

// Fig7Table renders the Fig. 7 tracking comparison.
func (r *ChangingResult) Fig7Table() *Table {
	return r.table("Fig 7 — multipath subflow on changing link 1 vs optimum, Mbps",
		"OPT", r.OptMbps, r.MPSubflow, r.TrackError)
}

// Fig8Table renders the Fig. 8 fair-share comparison.
func (r *ChangingResult) Fig8Table() *Table {
	return r.table("Fig 8 — single-path flow vs LMMF fair share under changing conditions, Mbps",
		"FAIR", r.FairMbps, r.SPGoodput, r.FairError)
}

// table renders one per-epoch comparison: the reference line, then each
// protocol's series, and a closing row of mean absolute errors.
func (r *ChangingResult) table(title, refName string, ref []float64,
	series map[Protocol][]float64, errs map[Protocol]float64) *Table {
	t := &Table{Title: title, Header: append([]string{"epoch", refName}, protoNames(r.protos)...)}
	for i := range r.Epochs {
		row := []string{fmt.Sprint(i), fmt.Sprintf("%.1f", ref[i])}
		for _, p := range r.protos {
			row = append(row, fmt.Sprintf("%.1f", series[p][i]))
		}
		t.AddRow(row...)
	}
	tr := []string{"mean |err|", "0.0"}
	for _, p := range r.protos {
		tr = append(tr, fmt.Sprintf("%.1f", errs[p]))
	}
	t.AddRow(tr...)
	return t
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
	warmBuckets := int(cfg.Warmup / stats.DefaultBucket)
	for i, rows := range runSpecs(specs, func(res *Result) (rows [][]string) {
		stat := func(flow string, series []float64) {
			post := tailMbps(series, warmBuckets)
			rows = append(rows, []string{flow,
				fmt.Sprintf("%.1f", stats.Mean(post)), fmt.Sprintf("%.1f", stats.Stddev(post))})
		}
		for si, series := range res.Flows["mp"].SubflowSeries {
			stat(fmt.Sprintf("mp-sf%d", si+1), series)
		}
		stat("sp", res.Flows["sp"].Series)
		return rows
	}) {
		for _, row := range rows {
			t.AddRow(append([]string{string(specs[i].Proto)}, row...)...)
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
