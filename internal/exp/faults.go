package exp

import (
	"fmt"
	"math"

	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
)

// FaultRecovery runs the fault-injection experiment: one row per protocol
// variant through a scripted mid-run outage of the secondary path.
//
// Setup: topology 3c with link2 narrowed to a thin 10 Mbps secondary (BDP
// buffer) — the classic primary+backup multipath shape. The multipath flow
// runs over both links, a single-path flow shares link2. A scripted outage
// takes link2 down from 45% to 65% of the run. Each connection has a finite
// (16384-packet) receive buffer, so a sender that keeps unacked holes on the
// dead path stalls on head-of-line blocking unless the failure detector
// migrates them. The "no-detect" variant disables the detector to show
// exactly that stall.
//
// The table's notes define its columns; "never" marks a flow that did not
// come back (the multipath flow stalled, the single-path one not revived).
func FaultRecovery(cfg Config) *Table {
	d := cfg.Duration
	if d < 20*sim.Second {
		d = 20 * sim.Second // the failover timeline needs room to play out
	}
	outStart := d * 45 / 100
	outEnd := d * 65 / 100

	type variant struct {
		label string
		proto Protocol
		extra []transport.ConnOption
	}
	variants := []variant{
		{"mpcc-loss", MPCCLoss, nil},
		{"lia", LIA, nil},
		{"olia", OLIA, nil},
		{"mpcc-loss/no-detect", MPCCLoss,
			[]transport.ConnOption{transport.WithFailThreshold(0)}},
	}

	labels := make([]string, len(variants))
	specs := make([]Spec, len(variants))
	for i, v := range variants {
		opts := append([]transport.ConnOption{
			transport.WithRcvBuf(16384 * transport.DefaultMSS),
		}, v.extra...)
		labels[i] = v.label
		specs[i] = Spec{
			Seed:     cfg.Seed,
			Duration: d,
			Warmup:   outStart - 2*sim.Second,
			Topo:     topo.Fig3c(),
			Tweak: func(net *topo.Net) {
				l2 := net.Link("link2")
				l2.SetRate(10e6)
				l2.SetBuffer(75000) // one BDP at 10 Mbps × 60 ms
				l2.Outage(outStart, outEnd-outStart)
			},
			Flows: []FlowSpec{
				{Name: "mp", Proto: v.proto, Paths: [][]string{{"link1"}, {"link2"}},
					Attach: AttachOptions{ConnOptions: opts}},
				{Name: "sp", Proto: v.proto.SinglePathPeer(), Paths: [][]string{{"link2"}},
					Attach: AttachOptions{ConnOptions: opts}},
			},
		}
	}
	t := &Table{
		Title: fmt.Sprintf(
			"Fault recovery — link2 outage %.1f–%.1f s, topology 3c with a thin 10 Mbps secondary",
			outStart.Seconds(), outEnd.Seconds()),
		Header: []string{"protocol", "mp pre", "mp outage", "retention",
			"migrate s", "mp post", "sp pre", "sp post", "sp recover s"},
	}
	sec := column{format: "%.1f", missing: "never"}
	cols := []column{mbpsCol, mbpsCol, {format: "%.0f%%"}, sec, mbpsCol, mbpsCol, mbpsCol, sec}
	t.runRows(cfg, labels, specs, cols, func(res *Result) []float64 {
		mp, sp := res.Flows["mp"], res.Flows["sp"]
		b := stats.DefaultBucket // FlowResult.Series' bucket width
		sb, eb, db := int(outStart/b), int(outEnd/b), int(d/b)
		// Steady levels are medians: unlike the mean, a median is robust to
		// the transient head-of-line stalls a finite receive buffer causes on
		// a lossy path, so it measures the goodput level rather than
		// averaging the stalls in.
		pre := stats.Median(window(mp.Series, sb-40, sb))
		outage := stats.Mean(window(mp.Series, sb, eb))
		retention := 0.0
		if pre > 0 {
			retention = outage / pre
		}
		spPre := stats.Median(window(sp.Series, sb-40, sb))
		return []float64{pre / 1e6, outage / 1e6, 100 * retention,
			sustainedSince(mp.Series, sb, eb, 0.8*pre),
			stats.Median(window(mp.Series, eb+20, db)) / 1e6,
			spPre / 1e6, stats.Median(window(sp.Series, eb+20, db)) / 1e6,
			sustainedSince(sp.Series, eb, db, 0.8*spPre)}
	})
	t.Notes = append(t.Notes,
		"Goodputs in Mbps. pre/post are steady levels (median of 100 ms buckets); outage is the mean over the outage window. \"migrate\" is the time from outage start until the multipath flow holds ≥80% of its pre-outage goodput for the rest of the outage; \"sp recover\" is the time from link restoration until the single-path flow holds ≥80% of its pre-outage goodput.",
		"All connections use a finite 16384-packet receive buffer: without the failure detector (no-detect row), unacked holes on the dead path stall the whole connection on head-of-line blocking, and revival waits on the backed-off RTO instead of a probe.",
	)
	return t
}

// window returns series buckets [lo, hi) clamped to the series (empty when
// nothing is left, which stats.Mean and stats.Median read as 0).
func window(series []float64, lo, hi int) []float64 {
	lo, hi = max(lo, 0), min(hi, len(series))
	if hi <= lo {
		return nil
	}
	return series[lo:hi]
}

// sustainedSince returns the seconds after bucket from at which every
// 1-second sliding window of the series stays at or above target through
// bucket to, or NaN if no such point exists (the flow never came back).
func sustainedSince(series []float64, from, to int, target float64) float64 {
	win := int(sim.Second / stats.DefaultBucket)
	if to > len(series) {
		to = len(series)
	}
	last := to - win
	if last < from {
		return math.NaN()
	}
	// Walk backward: ok marks the earliest start from which all later
	// windows hold the target.
	ok := -1
	for b := last; b >= from; b-- {
		if stats.Mean(window(series, b, b+win)) >= target {
			ok = b
		} else {
			break
		}
	}
	if ok < 0 {
		return math.NaN()
	}
	return float64(ok-from) * stats.DefaultBucket.Seconds()
}
