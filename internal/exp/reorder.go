package exp

import (
	"fmt"

	"mpcc/internal/netem"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

// ReorderIntensities is the hostile-reordering sweep: the per-packet
// probability that a packet jumps ahead of queued traffic on its link.
var ReorderIntensities = []float64{0, 0.02, 0.05, 0.10, 0.20, 0.35}

// ReorderSet is the protocol lineup of the reorder experiment: the paper's
// protagonist in both utility flavors against the coupled MPTCP controllers
// and uncoupled per-subflow Cubic.
var ReorderSet = []Protocol{MPCCLoss, MPCCLatency, LIA, OLIA, Cubic}

// reorderCorr and reorderMaxEarly fix the non-swept reordering parameters:
// mildly correlated arrival inversions of up to a third of the propagation
// delay, the netem-style shape of a load-balanced or multi-queue path.
const (
	reorderCorr     = 0.3
	reorderMaxEarly = 10 * sim.Millisecond
)

// reorderTweak enables reordering at the given probability on both links of
// the topology, so every subflow sees a hostile path.
func reorderTweak(prob float64) func(*topo.Net) {
	return func(n *topo.Net) {
		if prob <= 0 {
			return
		}
		for _, name := range n.LinkNames() {
			n.Link(name).SetReorder(&netem.Reorder{
				Prob: prob, Corr: reorderCorr, MaxEarly: reorderMaxEarly,
			})
		}
	}
}

// ReorderGoodput sweeps reordering intensity on topology 3b and reports each
// protocol's multipath goodput. Reordering destroys no data, so an ideal
// transport holds its goodput flat across the sweep; protocols whose loss
// detector misreads reordering as congestion collapse instead.
func ReorderGoodput(cfg Config) *Table {
	return sweep[float64]{
		head: []string{"reorder_pct"}, rows: ReorderIntensities, label: pctLabel,
		protos: ReorderSet, reps: cfg.Reps,
		spec: func(prob float64, p Protocol) Spec {
			return cfg.spec(topo.Fig3b(), p, reorderTweak(prob))
		},
		metrics: []metric{goodputMbps(
			"Reorder — multipath goodput vs reordering intensity on both links (topology 3b), Mbps", "mp")},
		notes: []string{"Reordering is pure arrival inversion (no packets destroyed): RACK-style time-based detection plus spurious-retransmit repair should keep goodput near the 0% column at every intensity."},
	}.tables()[0]
}

// ReorderLossSignal sweeps the same intensities for the MPCC-loss protagonist
// and breaks its loss accounting apart: packets declared lost, declarations
// later repaired as spurious, the corrected residual that actually feeds the
// controller's utility, and the links' real drops. Reordering-only impairment
// must leave corrected ≈ drops — the reordering itself contributes nothing to
// the learning signal.
func ReorderLossSignal(cfg Config) *Table {
	t := &Table{
		Title:  "Reorder — MPCC-loss loss-signal integrity vs reordering intensity (topology 3b)",
		Header: []string{"reorder_pct", "reordered", "sent", "declared", "spurious", "corrected", "link_drops"},
	}
	var labels []string
	var specs []Spec
	for _, prob := range ReorderIntensities {
		labels = append(labels, pctLabel(prob)[0])
		specs = append(specs, cfg.spec(topo.Fig3b(), MPCCLoss, reorderTweak(prob)))
	}
	t.rowPerSpec(labels, specs, func(res *Result) []string {
		var sent, declared, spurious, corrected uint64
		for _, sf := range res.Conns["mp"].Subflows() {
			sent += sf.SentPkts()
			declared += sf.LostPkts()
			spurious += sf.SpuriousPkts()
			corrected += sf.CorrectedLostPkts()
		}
		var reordered, drops uint64
		for _, name := range res.Net.LinkNames() {
			st := res.Net.Link(name).Stats()
			reordered += st.Reordered
			drops += st.DropsQueueFull + st.DropsRandom + st.DropsOutage + st.DropsBurst
		}
		return []string{fmt.Sprint(reordered), fmt.Sprint(sent), fmt.Sprint(declared),
			fmt.Sprint(spurious), fmt.Sprint(corrected), fmt.Sprint(drops)}
	})
	t.Notes = append(t.Notes,
		"\"declared\" are loss declarations (dupack/RACK/RTO), \"spurious\" the subset repaired by a late acknowledgement (Eifel), \"corrected\" = declared − spurious is what reaches the controller's monitor-interval statistics. corrected tracks link_drops: the declarations induced by reordering alone are all repaired.")
	return t
}

// Reorder renders the full reorder experiment.
func Reorder(cfg Config) []*Table {
	return []*Table{ReorderGoodput(cfg), ReorderLossSignal(cfg)}
}
