package exp

import (
	"fmt"

	"mpcc/internal/netem"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
)

// LEOPeriods is the handover-cadence sweep: 0 disables handovers (the
// static-constellation baseline); the rest step the satellite link on that
// period — at 2 s a 20 s run re-learns the path nine times.
var LEOPeriods = []sim.Time{0, 2 * sim.Second, 5 * sim.Second, 10 * sim.Second}

// LEOSet is the protocol lineup of the handover experiment.
var LEOSet = []Protocol{MPCCLoss, MPCCLatency, LIA, OLIA, Cubic}

// leoSchedule is the repeating two-satellite handover cycle: a fast low
// elevation pass and a slower high one. Both states are very-high-BDP
// (60–75 ms one-way at 60–150 Mbps ≈ 0.5–1.4 MB in flight), and each step
// discontinuously moves both rate and base delay.
var leoSchedule = []netem.HandoverStep{
	{RateBps: 150e6, Delay: 60 * sim.Millisecond},
	{RateBps: 60e6, Delay: 75 * sim.Millisecond},
}

// leoTweak turns link1 of the 3b topology into the LEO path: deep buffer
// for the huge BDP, the first schedule entry as the initial beam, and — for
// period > 0 — handovers every period for the whole run. link2 stays the
// default terrestrial path, so the multipath connection always holds one
// stable subflow while the other steps under it.
func leoTweak(period, duration sim.Time) func(*topo.Net) {
	return func(n *topo.Net) {
		leo := n.Link("link1")
		leo.SetRate(leoSchedule[0].RateBps)
		leo.SetDelay(leoSchedule[0].Delay)
		leo.SetBuffer(2 * leo.BDPBytes())
		if period > 0 {
			// The link starts in state 0, so the handover cycle begins at
			// state 1 and alternates from there.
			rotated := append(append([]netem.HandoverStep{}, leoSchedule[1:]...), leoSchedule[0])
			count := int(duration / period)
			leo.ScheduleHandovers(rotated, period, period, count)
		}
	}
}

// LEOGoodput sweeps handover cadence on a LEO+terrestrial multipath pair
// and reports each protocol's goodput. Handovers destroy no data and leave
// capacity high; the cost is purely re-learning speed — an online learner
// should degrade gracefully as the period shrinks, not collapse.
func LEOGoodput(cfg Config) *Table {
	return sweep[sim.Time]{
		head: []string{"period_s"}, rows: LEOPeriods,
		label:  func(period sim.Time) []string { return []string{fmt.Sprintf("%g", period.Seconds())} },
		protos: LEOSet,
		spec: func(period sim.Time, p Protocol) Spec {
			return cfg.spec(topo.Fig3b(), p, leoTweak(period, cfg.Duration))
		},
		metrics: []metric{goodputMbps(
			"LEO — multipath goodput vs handover period (LEO link1 + terrestrial link2), Mbps", "mp")},
		notes: []string{"Each handover atomically steps link1 between 150 Mbps/60 ms and 60 Mbps/75 ms (≈0.5–1.4 MB BDP). period_s = 0 is the no-handover baseline; the gap to it is the pure cost of re-learning the path after each discontinuity."},
	}.tables(cfg)[0]
}

// LEOHandoverDetail runs the fastest cadence for the latency-flavor
// protagonist and reports the per-period goodput alongside the handover
// and loss probes, showing how the controller re-converges after each step.
func LEOHandoverDetail(cfg Config) *Table {
	period := 2 * sim.Second
	t := &Table{
		Title:  fmt.Sprintf("LEO — MPCC-latency per-interval goodput across %gs handovers", period.Seconds()),
		Header: []string{"interval_s", "goodput_mbps"},
	}
	// One row per satellite dwell, the last cut at the end of the run.
	var dwells []string
	for start := sim.Time(0); start < cfg.Duration; start += period {
		dwells = append(dwells, fmt.Sprintf("%g–%g", start.Seconds(), min(start+period, cfg.Duration).Seconds()))
	}
	// A run reduces to its mean goodput in each dwell (Result.Series buckets
	// goodput from t=0), then link1's handover count.
	bucketsPerPeriod := int(period / stats.DefaultBucket)
	spec := cfg.spec(topo.Fig3b(), MPCCLatency, leoTweak(period, cfg.Duration))
	f := runSpecs(cfg, []Spec{spec}, func(res *Result) []float64 {
		out := make([]float64, len(dwells)+1)
		for k := range dwells {
			out[k] = stats.Mean(window(res.Flows["mp"].Series, k*bucketsPerPeriod, (k+1)*bucketsPerPeriod)) / 1e6
		}
		out[len(dwells)] = float64(res.Net.Link("link1").Stats().Handovers)
		return out
	})[0]
	for k, dwell := range dwells {
		t.addRow([]string{dwell}, f.cell(k, mbpsCol))
	}
	if handovers := f.mean[len(dwells)]; handovers > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("link1 executed %.0f handovers on the %gs cadence; each row is one dwell interval, so the dip-and-recover shape of each re-learning episode is visible directly.", handovers, period.Seconds()))
	}
	return t
}

// LEO renders the full LEO-handover experiment.
func LEO(cfg Config) []*Table {
	return []*Table{LEOGoodput(cfg), LEOHandoverDetail(cfg)}
}
