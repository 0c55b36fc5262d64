package transport

import (
	"testing"

	"mpcc/internal/cc/reno"
	"mpcc/internal/netem"
	"mpcc/internal/sim"
)

// ack delivers an acknowledgement of rec to the sender as the network does:
// a feedback packet carrying the record. senderAck releases the network
// reference a delivered packet hands it; ack takes that reference here, so
// the caller's references are untouched.
func (s *Subflow) ack(rec *pktRec) {
	rec.refs++
	s.senderAck(&netem.Packet{Meta: rec})
}

// lossRig builds a started window-subflow connection with a hand-feedable
// packet ledger: the engine is run to start the connection but the link is
// blacked out so no real traffic interferes with the fabricated records.
func lossRig(t *testing.T) (*testNet, *Subflow) {
	t.Helper()
	tn := newTestNet(99, 1)
	tn.links[0].SetLoss(1.0) // everything on the wire vanishes
	c := NewConnection(tn.eng, "rig")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.Run(10 * sim.Millisecond) // start fired; initial window sent into the void
	return tn, c.Subflows()[0]
}

func TestDupThresholdMarksEarlierPacketsLost(t *testing.T) {
	_, s := lossRig(t)
	if len(s.outstanding) < 5 {
		t.Fatalf("rig sent only %d packets", len(s.outstanding))
	}
	// Capture the records before acking: advanceHead nils resolved entries
	// in the live outstanding array, and a test reference keeps each one
	// from going home once the link's drop and the head advance released
	// theirs.
	recs := append([]*pktRec(nil), s.outstanding[s.outHead:]...)
	for _, rec := range recs {
		rec.refs++
	}
	// Ack the packet 3 indices after the head: everything with
	// idx+3 ≤ ackedIdx (the head) must be declared lost.
	target := recs[3]
	before := s.lostPkts
	s.ack(target)
	if !recs[0].lost {
		t.Fatal("head packet not marked lost after dup-threshold ack")
	}
	if recs[1].lost || recs[2].lost {
		t.Fatal("packets within the reorder window wrongly marked lost")
	}
	if s.lostPkts != before+1 {
		t.Fatalf("lostPkts advanced by %d, want 1", s.lostPkts-before)
	}
	// The lost segment must be queued for retransmission.
	found := false
	for _, seg := range s.retx.items() {
		if seg == recs[0].seg {
			found = true
		}
	}
	if !found && !recs[0].seg.delivered {
		t.Fatal("lost segment not queued for retransmission")
	}
}

func TestLossEventSuppressionOncePerWindow(t *testing.T) {
	tn, s := lossRig(t)
	_ = tn
	recs := s.outstanding[s.outHead:]
	if len(recs) < 6 {
		t.Fatalf("need ≥6 outstanding, have %d", len(recs))
	}
	cwndBefore := s.wc.Cwnd()
	// Two losses from the same flight: only ONE multiplicative decrease.
	s.markLost(recs[0], false)
	after1 := s.wc.Cwnd()
	s.markLost(recs[1], false)
	after2 := s.wc.Cwnd()
	if after1 >= cwndBefore {
		t.Fatalf("first loss did not reduce cwnd (%v → %v)", cwndBefore, after1)
	}
	if after2 != after1 {
		t.Fatalf("second same-window loss reduced cwnd again (%v → %v)", after1, after2)
	}
}

func TestSpuriousLossLateAckCountsDeliveryOnce(t *testing.T) {
	_, s := lossRig(t)
	recs := s.outstanding[s.outHead:]
	rec := recs[0]
	s.markLost(rec, false)
	acked := s.conn.AckedBytes()
	s.ack(rec) // the "lost" packet's ack arrives after all
	if s.conn.AckedBytes() != acked+int64(rec.size) {
		t.Fatalf("late ack delivery accounting wrong: %d → %d", acked, s.conn.AckedBytes())
	}
	s.ack(rec) // duplicate ack must be idempotent
	if s.conn.AckedBytes() != acked+int64(rec.size) {
		t.Fatal("duplicate ack double-counted delivery")
	}
}

func TestRTOTimerFiresAndCollapsesWindow(t *testing.T) {
	tn, s := lossRig(t)
	// Run past the RTO (min 200 ms + srtt margin): every packet of the
	// initial window times out; the window collapses to 1 and retransmits
	// keep dying on the blacked-out link.
	tn.eng.Run(2 * sim.Second)
	if s.LostPkts() == 0 {
		t.Fatal("no RTO losses on a blacked-out link")
	}
	if got := s.wc.Cwnd(); got != 1 {
		t.Fatalf("cwnd after RTOs = %v, want 1", got)
	}
	// Restore the link: the connection must resume and deliver.
	tn.links[0].SetLoss(0)
	tn.eng.Run(6 * sim.Second)
	if s.DeliveredBytes() == 0 {
		t.Fatal("no recovery after blackout lifted")
	}
}
