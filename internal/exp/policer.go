package exp

import (
	"fmt"

	"mpcc/internal/topo"
)

// PolicerRates is the token-bucket contract-rate sweep on the shared
// bottleneck, in bits/s: both below the wire rate, so the policer — not the
// drop-tail queue — is the binding constraint and every loss arrives with
// zero latency warning.
var PolicerRates = []float64{50e6, 80e6}

// PolicerDepths is the bucket-depth sweep in bytes: two MTUs up to a full
// paper-default BDP (375 KB). Shallow buckets police line-rate bursts
// almost immediately; deep ones absorb whole congestion-window spikes.
var PolicerDepths = []int{3000, 15000, 75000, 187500, 375000}

// PolicerSet is the protocol lineup: MPCC in both utility flavors against
// the coupled MPTCP controllers and uncoupled Cubic.
var PolicerSet = []Protocol{MPCCLoss, MPCCLatency, LIA, OLIA, Cubic}

// policerTweak arms the shared-bottleneck topology: the access links are
// overprovisioned to twice the paper rate so the policed shared link is the
// only contention point, then the token-bucket policer is attached to it.
func policerTweak(rateBps float64, burst int) func(*topo.Net) {
	return func(n *topo.Net) {
		n.Link("access1").SetRate(2 * topo.DefaultRate)
		n.Link("access2").SetRate(2 * topo.DefaultRate)
		n.Link("shared").SetPolicer(rateBps, burst)
	}
}

// PolicerGoodput sweeps contract rate × bucket depth on the shared
// bottleneck and reports each protocol's multipath goodput. The achievable
// ceiling is the contract rate; a controller that reads policer loss as
// queue-building congestion collapses below it, hardest at shallow depths.
func PolicerGoodput(cfg Config) *Table {
	type contract struct {
		rate  float64
		depth int
	}
	var rows []contract
	for _, rate := range PolicerRates {
		for _, depth := range PolicerDepths {
			rows = append(rows, contract{rate, depth})
		}
	}
	return sweep[contract]{
		head: []string{"rate_mbps", "burst_kb"}, rows: rows,
		label: func(c contract) []string {
			return []string{fmt.Sprintf("%g", c.rate/1e6), fmt.Sprintf("%g", float64(c.depth)/1e3)}
		},
		protos: PolicerSet, reps: cfg.Reps,
		spec: func(c contract, p Protocol) Spec {
			return cfg.spec(topo.SharedBottleneck(), p, policerTweak(c.rate, c.depth))
		},
		metrics: []metric{goodputMbps(
			"Policer — multipath goodput vs token-bucket contract (shared bottleneck), Mbps", "mp")},
		notes: []string{"The policer admits exactly rate_mbps (plus one burst_kb bucket), dropping the excess with zero added delay: goodput at the contract rate means the controller survived loss that carried no latency warning."},
	}.tables()[0]
}

// PolicerLossSignal sweeps bucket depth at a fixed contract rate for the
// latency-flavor protagonist and decomposes what its loss accounting saw:
// policer drops vs queue drops on the links, loss declarations and the
// spurious-repair residual at the transport, and post-warmup mean latency.
// A policer is the latency gradient's structural blind spot — latency stays
// at the base RTT while the loss column carries the entire signal.
func PolicerLossSignal(cfg Config) *Table {
	t := &Table{
		Title: fmt.Sprintf("Policer — MPCC-latency loss-signal decomposition vs bucket depth (shared bottleneck, contract %g Mbps)", PolicerRates[0]/1e6),
		Header: []string{"burst_kb", "goodput_mbps", "policer_drops", "queue_drops",
			"declared", "spurious", "corrected", "latency_ms"},
	}
	var labels []string
	var specs []Spec
	for _, depth := range PolicerDepths {
		labels = append(labels, fmt.Sprintf("%g", float64(depth)/1e3))
		specs = append(specs, cfg.spec(topo.SharedBottleneck(), MPCCLatency, policerTweak(PolicerRates[0], depth)))
	}
	t.rowPerSpec(labels, specs, func(res *Result) []string {
		var declared, spurious, corrected uint64
		for _, sf := range res.Conns["mp"].Subflows() {
			declared += sf.LostPkts()
			spurious += sf.SpuriousPkts()
			corrected += sf.CorrectedLostPkts()
		}
		var policerDrops, queueDrops uint64
		for _, name := range res.Net.LinkNames() {
			st := res.Net.Link(name).Stats()
			policerDrops += st.DropsPolicer
			queueDrops += st.DropsQueueFull
		}
		return []string{mbps(res.Flows["mp"].GoodputBps),
			fmt.Sprint(policerDrops), fmt.Sprint(queueDrops),
			fmt.Sprint(declared), fmt.Sprint(spurious), fmt.Sprint(corrected),
			fmt.Sprintf("%.2f", res.Flows["mp"].LatencyMean*1e3)}
	})
	t.Notes = append(t.Notes,
		"policer_drops land with the queue empty, so latency_ms holds at the 120 ms base RTT at every depth: the whole congestion signal is in corrected (= declared − spurious) losses, none of it in the latency gradient.")
	return t
}

// Policer renders the full policer experiment.
func Policer(cfg Config) []*Table {
	return []*Table{PolicerGoodput(cfg), PolicerLossSignal(cfg)}
}
