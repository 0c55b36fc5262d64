package exp

import (
	"fmt"

	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
)

// SchedulerValidation reproduces the §6 experiment: a single multipath
// connection running per-subflow BBR over two parallel 100 Mbps links, once
// with the default MPTCP scheduler and once with the paper's rate-based
// scheduler. The paper measured 148.2 → 179.4 Mbps; the shape to reproduce
// is the large deficit under the default scheduler.
func SchedulerValidation(cfg Config) *Table {
	t := &Table{
		Title:  "§6 scheduler validation — per-subflow BBR over 2×100 Mbps, Mbps",
		Header: []string{"scheduler", "goodput", "sf1", "sf2"},
	}
	var labels []string
	var specs []Spec
	for _, tc := range []struct {
		name  string
		sched transport.Scheduler
	}{
		{"default", transport.DefaultScheduler{}},
		{"rate-based(10%)", transport.NewRateScheduler(0.10)},
	} {
		// Distinct RTTs make the lowest-RTT preference bite.
		s := cfg.spec(topo.Fig3b(), BBR, func(n *topo.Net) { n.Link("link2").SetDelay(45 * sim.Millisecond) })
		s.Flows = []FlowSpec{{
			Name: "mp", Proto: BBR,
			Paths:  [][]string{{"link1"}, {"link2"}},
			Attach: AttachOptions{ConnOptions: []transport.ConnOption{transport.WithScheduler(tc.sched)}},
		}}
		labels, specs = append(labels, tc.name), append(specs, s)
	}
	t.rowPerSpec(labels, specs, func(res *Result) []string {
		fr := res.Flows["mp"]
		return []string{mbps(fr.GoodputBps), mbps(fr.SubflowGoodputBps[0]), mbps(fr.SubflowGoodputBps[1])}
	})
	return t
}

// AblationSchedulerThreshold sweeps the rate scheduler's availability
// threshold (the paper chose 10% empirically) on topology 3b with unequal
// RTTs, reporting bulk goodput and the FCT of a short file — the two
// extremes §6 describes (wasted capacity vs spraying).
func AblationSchedulerThreshold(cfg Config) *Table {
	t := &Table{
		Title:  "Ablation §6 — rate-scheduler threshold sweep (MPCC-latency, 2 links, unequal RTT)",
		Header: []string{"threshold", "bulk_goodput_Mbps", "1MB_fct_ms"},
	}
	// Two simulations per threshold, enumerated bulk then file.
	thresholds := []float64{0.01, 0.05, 0.10, 0.25, 0.50, 1.0}
	var specs []Spec
	for _, thr := range thresholds {
		for _, fileBytes := range []int64{0, 1_000_000} {
			s := cfg.spec(topo.Fig3b(), MPCCLatency, func(n *topo.Net) { n.Link("link2").SetDelay(60 * sim.Millisecond) })
			s.Flows = []FlowSpec{{
				Name: "mp", Proto: MPCCLatency,
				Paths: [][]string{{"link1"}, {"link2"}},
				Attach: AttachOptions{ConnOptions: []transport.ConnOption{
					transport.WithScheduler(transport.NewRateScheduler(thr))}},
				FileBytes: fileBytes,
			}}
			specs = append(specs, s)
		}
	}
	flows := runSpecs(specs, func(res *Result) *FlowResult { return res.Flows["mp"] })
	for i, thr := range thresholds {
		bulk, file := flows[2*i], flows[2*i+1]
		fct := "-"
		if file.FCT >= 0 {
			fct = fmt.Sprintf("%.0f", file.FCT.Seconds()*1e3)
		}
		t.AddRow(fmt.Sprintf("%.0f%%", thr*100), mbps(bulk.GoodputBps), fct)
	}
	return t
}

// AblationConnLevel compares the §4 connection-level learner against
// per-subflow MPCC on topology 3c: goodput after a short run shows the
// slower reaction, and the single-path competitor shows the transient
// "wrong reaction" pressure.
func AblationConnLevel(cfg Config) *Table {
	t := &Table{
		Title:  "Ablation §4 — connection-level vs per-subflow rate control (topology 3c)",
		Header: []string{"design", "mp_goodput_Mbps", "sp_goodput_Mbps", "utilization"},
	}
	var labels []string
	var specs []Spec
	for _, p := range []Protocol{MPCCConnLevel, MPCCLoss} {
		s := cfg.spec(topo.Fig3c(), p, nil)
		s.SPProto = MPCCLoss
		labels, specs = append(labels, string(p)), append(specs, s)
	}
	t.rowPerSpec(labels, specs, func(res *Result) []string {
		return []string{mbps(res.Flows["mp"].GoodputBps),
			mbps(res.Flows["sp"].GoodputBps), fmt.Sprintf("%.3f", res.Utilization)}
	})
	return t
}

// AblationOmegaBase probes §7.2.7's worst case for the paper's design
// choice: with 500 + 50 Mbps links, scaling the probe step and change bound
// by the connection TOTAL makes the thin link's rate adjustments "too big,
// leading MPCC to often overshoot that link's bandwidth" — visible as
// drop-tail losses on the thin link. Scaling by the subflow's OWN rate
// avoids the overshoot (at the cost of the slow exploration the paper chose
// total-scaling to prevent).
func AblationOmegaBase(cfg Config) *Table {
	t := &Table{
		Title:  "Ablation §5.2/§7.2.7 — probe/bound scaled by connection total vs own rate (500+50 Mbps links)",
		Header: []string{"omega base", "goodput_Mbps", "sf_fat", "sf_thin", "thin_drop_pct"},
	}
	var labels []string
	var specs []Spec
	for _, tc := range []struct {
		name string
		own  bool
	}{{"connection total", false}, {"own rate", true}} {
		s := cfg.spec(topo.Fig3b(), MPCCLoss, func(n *topo.Net) {
			n.Link("link1").SetRate(500e6)
			n.Link("link1").SetBuffer(4 * 375000)
			n.Link("link2").SetRate(50e6)
		})
		s.Flows = []FlowSpec{{
			Name: "mp", Proto: MPCCLoss,
			Paths:  [][]string{{"link1"}, {"link2"}},
			Attach: AttachOptions{ScaleByOwnRate: tc.own},
		}}
		labels, specs = append(labels, tc.name), append(specs, s)
	}
	t.rowPerSpec(labels, specs, func(res *Result) []string {
		fr := res.Flows["mp"]
		thin := res.Net.Link("link2").Stats()
		dropPct := 0.0
		if total := thin.EnqueuedPackets + thin.DropsQueueFull; total > 0 {
			dropPct = 100 * float64(thin.DropsQueueFull) / float64(total)
		}
		return []string{mbps(fr.GoodputBps),
			mbps(fr.SubflowGoodputBps[0]), mbps(fr.SubflowGoodputBps[1]),
			fmt.Sprintf("%.2f", dropPct)}
	})
	return t
}

// AblationNoPublication compares frozen rate-publication snapshots (§5.2
// remark) against live sibling rates during gradient estimation, on the
// two-MP topology where sibling churn is constant.
func AblationNoPublication(cfg Config) *Table {
	t := &Table{
		Title:  "Ablation §5.2 — frozen rate-publication snapshot vs live sibling rates (topology 3e)",
		Header: []string{"publication", "utilization", "jain"},
	}
	var labels []string
	var specs []Spec
	for _, tc := range []struct {
		name string
		live bool
	}{{"frozen snapshot", false}, {"live rates", true}} {
		live := AttachOptions{LivePublication: tc.live}
		s := cfg.spec(topo.Fig3e(), MPCCLoss, nil)
		s.Flows = []FlowSpec{
			{Name: "mp1", Proto: MPCCLoss, Paths: [][]string{{"link1"}, {"link2"}}, Attach: live},
			{Name: "mp2", Proto: MPCCLoss, Paths: [][]string{{"link1"}, {"link2"}}, Attach: live},
		}
		labels, specs = append(labels, tc.name), append(specs, s)
	}
	t.rowPerSpec(labels, specs, func(res *Result) []string {
		return []string{fmt.Sprintf("%.3f", res.Utilization), fmt.Sprintf("%.3f", res.Jain)}
	})
	return t
}
