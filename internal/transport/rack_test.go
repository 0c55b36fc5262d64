package transport

import (
	"testing"

	"mpcc/internal/cc/reno"
	"mpcc/internal/netem"
	"mpcc/internal/sim"
)

// TestRackReorderWindowAdapts drives the window through its growth ladder
// (doubling per spurious detection, capped at one srtt) and its decay (one
// halving per 16 srtt without fresh evidence).
func TestRackReorderWindowAdapts(t *testing.T) {
	_, s := lossRig(t)
	s.srtt = 100 * sim.Millisecond
	s.minRTT = 40 * sim.Millisecond
	if got := reorderWindow(s); got != 0 {
		t.Fatalf("window before any reordering = %v, want 0", got)
	}
	s.reoSeen = true
	now := s.conn.eng.Now()
	cases := []struct {
		name  string
		grows int
		want  sim.Time
	}{
		{"base", 0, 10 * sim.Millisecond}, // minRTT/4
		{"x2", 1, 20 * sim.Millisecond},
		{"x4", 2, 40 * sim.Millisecond},
		{"x8", 3, 80 * sim.Millisecond},
		{"capped at srtt", 4, 100 * sim.Millisecond}, // ×16 → clamped
		{"cap is sticky", 5, 100 * sim.Millisecond},  // mult itself capped at 16
	}
	for _, tc := range cases {
		s.reoWndMult = 1
		s.reoWndGrewAt = now
		for i := 0; i < tc.grows; i++ {
			s.growReoWnd(now)
		}
		if got := s.reoWnd(now); got != tc.want {
			t.Errorf("%s: reoWnd = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Decay: from the ×16 cap, 16 srtt of quiet per halving. At +3.3 s
	// (srtt 100 ms) exactly two halvings have elapsed: 16 → 8 → 4.
	s.reoWndMult = 16
	s.reoWndGrewAt = now
	later := now + 3300*sim.Millisecond
	if got := s.reoWnd(later); got != 40*sim.Millisecond {
		t.Fatalf("decayed reoWnd = %v, want 40ms (mult 4)", got)
	}
	if s.reoWndMult != 4 {
		t.Fatalf("decayed mult = %d, want 4", s.reoWndMult)
	}
}

// TestRackSuppressesDupThresholdAfterReordering checks the mode switch: an
// out-of-order ack flips the subflow to time-based marking, after which a
// dupack pattern that would have declared the head lost holds off until the
// reordering window has truly elapsed — and then marks it.
func TestRackSuppressesDupThresholdAfterReordering(t *testing.T) {
	tn, s := lossRig(t)
	recs := append([]*pktRec(nil), s.outstanding[s.outHead:]...)
	if len(recs) < 7 {
		t.Fatalf("rig sent only %d packets", len(recs))
	}
	for _, rec := range recs {
		rec.refs++ // a test reference: read after the head advance released its slot
	}
	s.ack(recs[2])
	if s.reoSeen {
		t.Fatal("in-order ack wrongly flagged reordering")
	}
	s.ack(recs[1]) // older index after newer: reordering observed
	if !s.reoSeen {
		t.Fatal("out-of-order ack did not flag reordering")
	}
	// Under dup-threshold rules this ack would mark recs[0..2] lost; RACK
	// must hold off (everything was sent at the same instant).
	s.ack(recs[5])
	if recs[0].lost {
		t.Fatal("RACK marked a same-flight packet lost immediately")
	}
	if recs[3].lost || recs[4].lost {
		t.Fatal("RACK marked packets inside the window")
	}
	// Past the recheck deadline (rack RTT + window, well under the RTO) the
	// still-unacked head must be declared lost and queued for retransmit.
	before := s.lostPkts
	tn.eng.Run(tn.eng.Now() + 100*sim.Millisecond)
	if !recs[0].lost {
		t.Fatal("RACK sweep did not mark the head lost")
	}
	if s.lostPkts == before {
		t.Fatal("no losses recorded by the RACK sweep")
	}
}

// TestSpuriousRTOUndo exercises the Eifel repair after a timeout: the late
// ack must restore the pre-backoff RTO, refund the controller's window, and
// count the episode as spurious.
func TestSpuriousRTOUndo(t *testing.T) {
	tn := newTestNet(7, 1)
	tn.links[0].SetLoss(1.0)
	ctrl := reno.New()
	c := NewConnection(tn.eng, "undo", WithFailThreshold(0))
	c.AddWindowSubflow(tn.path(0), ctrl)
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.Run(10 * sim.Millisecond)
	s := c.Subflows()[0]
	recs := append([]*pktRec(nil), s.outstanding[s.outHead:]...)
	if len(recs) == 0 {
		t.Fatal("rig sent nothing")
	}
	// The late ack below is delivered by hand: in the real spurious scenario
	// the packet arrived (late) rather than being dropped, so the network's
	// Meta reference stays alive until feedback returns. Retain it here —
	// the 100%-loss link would otherwise release it and let the pool recycle
	// the records out from under the test.
	for _, rec := range recs {
		rec.RetainMeta()
	}
	cwndBefore := ctrl.Cwnd()
	baseRTO := s.rto
	tn.eng.Run(400 * sim.Millisecond) // the initial flight times out
	if s.backoff == 0 || !recs[0].lost || !recs[0].lostByRTO {
		t.Fatalf("no RTO episode: backoff=%d lost=%v byRTO=%v", s.backoff, recs[0].lost, recs[0].lostByRTO)
	}
	if ctrl.Cwnd() != 1 {
		t.Fatalf("cwnd after RTO = %v, want 1", ctrl.Cwnd())
	}
	if s.backedOffRTO() <= baseRTO {
		t.Fatal("RTO not backed off after the episode")
	}

	s.ack(recs[0]) // the "lost" packet's ack arrives after all
	if s.backoff != 0 {
		t.Fatalf("backoff after spurious ack = %d, want 0", s.backoff)
	}
	if got := s.backedOffRTO(); got != s.rto {
		t.Fatalf("RTO after undo = %v, want base %v", got, s.rto)
	}
	if got := ctrl.Cwnd(); got != cwndBefore {
		t.Fatalf("cwnd after undo = %v, want restored %v", got, cwndBefore)
	}
	if s.SpuriousPkts() != 1 || s.spuriousRTOs != 1 {
		t.Fatalf("spurious counters = %d/%d, want 1/1", s.SpuriousPkts(), s.spuriousRTOs)
	}
	if got := s.CorrectedLostPkts(); got != s.LostPkts()-1 {
		t.Fatalf("CorrectedLostPkts = %d, want %d", got, s.LostPkts()-1)
	}
	// The window it grew: the spurious RTO is evidence of deep reordering.
	if reorderWindow(s) == 0 {
		t.Fatal("spurious RTO did not open the reordering window")
	}
}

// TestReorderOnlyCorrectedLossIsZero is the tentpole's transport-level
// acceptance property: on a path that reorders but never drops, every loss
// declaration must eventually be repaired, leaving the corrected loss —
// the controllers' signal — at zero, while the transfer still completes.
func TestReorderOnlyCorrectedLossIsZero(t *testing.T) {
	tn := newTestNet(5, 1)
	tn.links[0].SetReorder(&netem.Reorder{Prob: 0.2, Corr: 0.3, MaxEarly: 20 * sim.Millisecond})
	c := NewConnection(tn.eng, "reorder")
	c.AddWindowSubflow(tn.path(0), reno.New())
	const fileBytes = 1_500_000
	c.SetApp(NewFile(fileBytes), nil)
	c.Start(0)
	tn.eng.Run(60 * sim.Second)
	if c.FCT() < 0 {
		t.Fatal("transfer did not complete under reordering")
	}
	// Let straggling acknowledgements for marked-lost packets drain.
	tn.eng.Run(tn.eng.Now() + 5*sim.Second)
	s := c.Subflows()[0]
	if got := s.CorrectedLostPkts(); got != 0 {
		t.Fatalf("corrected loss = %d under reordering-only impairment, want 0 (lost=%d spurious=%d)",
			got, s.LostPkts(), s.SpuriousPkts())
	}
	if c.AckedBytes() != fileBytes || c.ReceivedBytes() != fileBytes {
		t.Fatalf("ledger: acked=%d received=%d, want %d", c.AckedBytes(), c.ReceivedBytes(), fileBytes)
	}
	if c.MaxDeliveryGap() > sim.Second {
		t.Fatalf("delivery stalled %v under reordering-only impairment", c.MaxDeliveryGap())
	}
}

// TestDuplicationKeepsLedgerExact is the satellite regression for duplicate
// deliveries: link-level duplication (and the duplicate ACKs it produces)
// must not inflate the receive ledger or the delivery accounting.
func TestDuplicationKeepsLedgerExact(t *testing.T) {
	tn := newTestNet(21, 1)
	tn.links[0].SetDuplicate(0.5)
	c := NewConnection(tn.eng, "dup")
	c.AddWindowSubflow(tn.path(0), reno.New())
	const fileBytes = 600_000
	c.SetApp(NewFile(fileBytes), nil)
	c.Start(0)
	tn.eng.Run(60 * sim.Second)
	if c.FCT() < 0 {
		t.Fatal("transfer did not complete under duplication")
	}
	if tn.links[0].Stats().Duplicated == 0 {
		t.Fatal("link produced no duplicates; rig is not testing anything")
	}
	if got := c.ReceivedBytes(); got != fileBytes {
		t.Fatalf("ReceivedBytes = %d, want exactly %d (duplicates must dedup)", got, fileBytes)
	}
	if got := c.AckedBytes(); got != fileBytes {
		t.Fatalf("AckedBytes = %d, want exactly %d", got, fileBytes)
	}
	if c.InOrderBytes() != fileBytes {
		t.Fatalf("InOrderBytes = %d, want %d", c.InOrderBytes(), fileBytes)
	}
	if c.OfferedBytes() != fileBytes {
		t.Fatalf("OfferedBytes = %d, want %d", c.OfferedBytes(), fileBytes)
	}
}

// TestRetransmitRacesLateOriginal pins the overlap case directly: a
// retransmission and the late-arriving original of the same segment produce
// two arrivals for one stream range, and the rangeSet must count it once.
func TestRetransmitRacesLateOriginal(t *testing.T) {
	var c Connection
	c.onArrival(0, 1500)
	c.onArrival(1500, 1500) // retransmission arrives first
	c.onArrival(1500, 1500) // late original of the same range
	c.onArrival(3000, 700)
	c.onArrival(2900, 900) // partial overlap across a boundary
	if got := c.ReceivedBytes(); got != 3800 {
		t.Fatalf("ReceivedBytes = %d, want 3800", got)
	}
	if got := c.InOrderBytes(); got != 3800 {
		t.Fatalf("InOrderBytes = %d, want 3800", got)
	}
}

// reorderWindow is the RACK reordering window in effect: 0 while no
// reordering has been observed and dup-threshold detection applies.
func reorderWindow(s *Subflow) sim.Time {
	if !s.reoSeen {
		return 0
	}
	return s.reoWnd(s.conn.eng.Now())
}
