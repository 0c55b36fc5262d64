package transport

import (
	"testing"

	"mpcc/internal/cc"
	"mpcc/internal/sim"
)

// fixedRate is a rate controller pinned to one pacing rate, so scheduler
// tests control every input of the Pick decision directly.
type fixedRate struct{ rate float64 }

func (f fixedRate) NextRate(now, srtt sim.Time) float64 { return f.rate }
func (f fixedRate) OnMIComplete(cc.MIStats)             {}

// fixedWin is a window controller pinned to one cwnd.
type fixedWin struct{ w float64 }

func (f fixedWin) Cwnd() float64                              { return f.w }
func (f fixedWin) OnAck(now, rtt sim.Time, ackedPkts float64) {}
func (f fixedWin) OnLossEvent(sim.Time)                       {}
func (f fixedWin) OnRTO(sim.Time)                             {}

// subState is one subflow's inputs to a scheduler decision.
type subState struct {
	srtt     sim.Time
	rateBps  float64 // >0: rate-based subflow at this pacing rate
	cwndPkts float64 // used when rateBps == 0: window-based subflow
	inflight int
	pending  int
	failed   bool
}

// rigConn builds a connection whose subflows are pinned to the given states.
func rigConn(t *testing.T, states []subState) *Connection {
	t.Helper()
	tn := newTestNet(1, len(states))
	c := NewConnection(tn.eng, "rig")
	for i, st := range states {
		var s *Subflow
		if st.rateBps > 0 {
			s = c.AddRateSubflow(tn.path(i), fixedRate{st.rateBps})
			s.curRate = st.rateBps
		} else {
			s = c.AddWindowSubflow(tn.path(i), fixedWin{st.cwndPkts})
		}
		s.srtt = st.srtt
		s.notePace()
		s.inflightPkts = st.inflight
		s.pending = segQueue{s: make([]*segment, st.pending)}
		if st.failed {
			s.state = SubflowFailed
		}
	}
	return c
}

func TestDefaultSchedulerPick(t *testing.T) {
	ms := sim.Millisecond
	cases := []struct {
		name   string
		states []subState
		want   int // expected subflow id, -1 for nil
	}{
		{
			name: "lowest RTT wins",
			states: []subState{
				{srtt: 30 * ms, rateBps: 10e6},
				{srtt: 10 * ms, rateBps: 10e6},
				{srtt: 20 * ms, rateBps: 10e6},
			},
			want: 1,
		},
		{
			// §6's pathology: rate-based subflows have no effective window,
			// so an arbitrarily deep pending backlog on the fastest subflow
			// never diverts data to its siblings — the starvation the
			// RateScheduler exists to fix.
			name: "rate-based backlog starves siblings",
			states: []subState{
				{srtt: 10 * ms, rateBps: 10e6, pending: 10000, inflight: 500},
				{srtt: 30 * ms, rateBps: 10e6},
			},
			want: 0,
		},
		{
			name: "window-full subflow is skipped",
			states: []subState{
				{srtt: 10 * ms, cwndPkts: 10, inflight: 10},
				{srtt: 30 * ms, cwndPkts: 10, inflight: 3},
			},
			want: 1,
		},
		{
			name: "failed subflow is skipped",
			states: []subState{
				{srtt: 10 * ms, rateBps: 10e6, failed: true},
				{srtt: 30 * ms, rateBps: 10e6},
			},
			want: 1,
		},
		{
			name: "all subflows failed",
			states: []subState{
				{srtt: 10 * ms, rateBps: 10e6, failed: true},
				{srtt: 30 * ms, rateBps: 10e6, failed: true},
			},
			want: -1,
		},
		{
			name: "all windows full",
			states: []subState{
				{srtt: 10 * ms, cwndPkts: 4, inflight: 4},
				{srtt: 30 * ms, cwndPkts: 4, inflight: 5},
			},
			want: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := rigConn(t, tc.states)
			got := DefaultScheduler{}.Pick(c)
			checkPick(t, got, tc.want)
		})
	}
}

func TestRateSchedulerPick(t *testing.T) {
	ms := sim.Millisecond
	// At 120 Mbps and 10 ms RTT with 1500 B packets, one RTT of data is 100
	// packets, so the paper's 10% threshold caps the pending queue at 10.
	const rate100 = 120e6
	cases := []struct {
		name   string
		states []subState
		want   int
	}{
		{
			name: "lowest RTT among available",
			states: []subState{
				{srtt: 30 * ms, rateBps: rate100},
				{srtt: 10 * ms, rateBps: rate100},
			},
			want: 1,
		},
		{
			name: "at 10% backlog the subflow is unavailable",
			states: []subState{
				{srtt: 10 * ms, rateBps: rate100, pending: 10},
				{srtt: 30 * ms, rateBps: rate100},
			},
			want: 1,
		},
		{
			name: "just below the threshold it still takes data",
			states: []subState{
				{srtt: 10 * ms, rateBps: rate100, pending: 9},
				{srtt: 30 * ms, rateBps: rate100},
			},
			want: 0,
		},
		{
			// cap = max(1, ⌊threshold × rate × RTT⌋): a near-idle subflow
			// still gets one segment, so slow paths make progress.
			name: "queue cap floors at one packet",
			states: []subState{
				{srtt: 10 * ms, rateBps: 1e3},
			},
			want: 0,
		},
		{
			name: "floored cap of one packet blocks at one pending",
			states: []subState{
				{srtt: 10 * ms, rateBps: 1e3, pending: 1},
			},
			want: -1,
		},
		{
			name: "window-based subflow capped by threshold×cwnd",
			states: []subState{
				{srtt: 10 * ms, cwndPkts: 50, pending: 5},
				{srtt: 30 * ms, cwndPkts: 50, pending: 4},
			},
			want: 1,
		},
		{
			name: "all subflows failed",
			states: []subState{
				{srtt: 10 * ms, rateBps: rate100, failed: true},
				{srtt: 30 * ms, rateBps: rate100, failed: true},
			},
			want: -1,
		},
		{
			name: "every queue at threshold",
			states: []subState{
				{srtt: 10 * ms, rateBps: rate100, pending: 10},
				{srtt: 10 * ms, rateBps: rate100, pending: 10},
			},
			want: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := rigConn(t, tc.states)
			got := NewRateScheduler(0.10).Pick(c)
			checkPick(t, got, tc.want)
		})
	}
}

func checkPick(t *testing.T, got *Subflow, want int) {
	t.Helper()
	switch {
	case got == nil && want != -1:
		t.Fatalf("Pick returned nil, want subflow %d", want)
	case got != nil && want == -1:
		t.Fatalf("Pick returned subflow %d, want nil", got.id)
	case got != nil && got.id != want:
		t.Fatalf("Pick returned subflow %d, want %d", got.id, want)
	}
}

// stepRate is a rate controller whose rate a test moves between MIs.
type stepRate struct{ rate float64 }

func (f *stepRate) NextRate(now, srtt sim.Time) float64 { return f.rate }
func (f *stepRate) OnMIComplete(cc.MIStats)             {}

// TestPktsPerRTTTracksPace: the rate scheduler's cached curRate·srtt equals
// the formula, bit for bit, after each of notePace's write sites.
func TestPktsPerRTTTracksPace(t *testing.T) {
	tn := newTestNet(1, 1)
	ctl := &stepRate{5e6}
	c := NewConnection(tn.eng, "pace")
	s := c.AddRateSubflow(tn.path(0), ctl)
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	check := func(when string) {
		t.Helper()
		want := s.curRate * s.srtt.Seconds() / 8 / float64(DefaultMSS)
		if s.pktsPerRTT != want || want == 0 {
			t.Fatalf("after %s: pktsPerRTT = %v, want %v (non-zero)", when, s.pktsPerRTT, want)
		}
	}
	s.curRate = 3e6
	s.init()
	check("init")
	tn.eng.Step() // the start event: init, then the first MI at 5 Mbps
	check("the first MI")
	ctl.rate = 7e6
	s.rollMI()
	check("a rate change")
	s.curRate = 0.25
	s.nextSend = 0
	s.pace()
	if s.curRate != 1 {
		t.Fatalf("pace left curRate = %v, want the clamp to 1", s.curRate)
	}
	check("the rate-1 clamp")
	s.updateRTT(45 * sim.Millisecond)
	check("an RTT sample")
}

// TestSchedulerDefaultsByFamily: without WithScheduler, Start gives a
// connection §7.1's scheduler for its subflows — the kernel's
// DefaultScheduler when they are window-based, the paper's 10%-threshold
// RateScheduler when they are paced — and WithScheduler wins for both.
func TestSchedulerDefaultsByFamily(t *testing.T) {
	custom := NewRateScheduler(0.5)
	for _, tc := range []struct {
		name   string
		window bool
		opts   []ConnOption
		want   Scheduler
	}{
		{"window", true, nil, DefaultScheduler{}},
		{"rate", false, nil, paperScheduler},
		{"window with rate scheduler", true, []ConnOption{WithScheduler(custom)}, custom},
		{"rate with default scheduler", false, []ConnOption{WithScheduler(DefaultScheduler{})}, DefaultScheduler{}},
	} {
		tn := newTestNet(1, 2)
		c := NewConnection(tn.eng, tc.name, tc.opts...)
		for i := range 2 {
			if tc.window {
				c.AddWindowSubflow(tn.path(i), fixedWin{10})
			} else {
				c.AddRateSubflow(tn.path(i), fixedRate{1e6})
			}
		}
		c.Start(0)
		if c.sched != tc.want {
			t.Errorf("%s: scheduler %#v, want %#v", tc.name, c.sched, tc.want)
		}
	}
	if rs, ok := paperScheduler.(*RateScheduler); !ok || rs.Threshold != 0.10 {
		t.Errorf("rate-based default %#v, want the paper's 10%% RateScheduler", paperScheduler)
	}
}
