package transport

import (
	"fmt"
	"math"

	"mpcc/internal/cc"
	"mpcc/internal/netem"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
)

// pktRec is the sender-side record of one transmitted packet. Records are
// pooled per engine and reference-counted (see pool.go for the
// ownership rules); refs is the number of live references.
type pktRec struct {
	sf        *Subflow
	seg       *segment
	idx       uint64 // per-subflow send index (dup-threshold ordering)
	size      int
	sentAt    sim.Time
	acked     bool
	lost      bool
	lostByRTO bool // the loss declaration came from an RTO episode
	mi        *monitorInterval
	rtoAt     sim.Time // retransmission deadline, fixed at send
	refs      int32
}

// Subflow is one path-bound flow of a multipath connection. Exactly one of
// the rate/window controllers is set.
type Subflow struct {
	conn *Connection
	id   int
	path *netem.Path

	rc cc.RateController
	wc cc.WindowController

	// data queues
	pending segQueue // assigned by the scheduler, unsent
	retx    segQueue // lost segments awaiting retransmission

	// in-flight tracking
	outstanding   []*pktRec // send order; head entries may be resolved
	outHead       int
	inflightBytes int
	inflightPkts  int
	sendIdx       uint64

	// RTT estimation, and the one retransmission timer (see onRTOTimer)
	srtt, rttvar, rto sim.Time
	rtoTimer          sim.TimerRef
	rtoTimerAt        sim.Time

	running bool // set once begin() ran

	// pacing state (rate-based); pktsPerRTT is curRate·srtt in packets,
	// kept by notePace for the rate scheduler's queue cap
	curRate    float64
	pktsPerRTT float64
	nextSend   sim.Time
	pacerTimer sim.TimerRef
	pacerIdle  bool
	capBlocked bool

	// monitor intervals (rate-based): openMIs[miHead:] are live, in order.
	openMIs []*monitorInterval
	miHead  int
	miSeq   int

	// loss-event suppression (window-based): react at most once per
	// window of data.
	recoverIdx uint64

	// RACK-style time-based loss detection (after RFC 8985). While acks
	// arrive in send order the classic dup-threshold marks losses; the
	// first out-of-order acknowledgement sets reoSeen and switches the
	// subflow to time-based marking with a reordering window derived from
	// the path's min RTT, widened whenever a declaration later proves
	// spurious and decaying back on an srtt timescale.
	reoSeen      bool
	ackedAny     bool
	maxAckedIdx  uint64   // highest send index acknowledged
	rackXmit     sim.Time // send time of the newest delivered packet
	rackRTT      sim.Time // RTT that delivered it
	minRTT       sim.Time // lifetime minimum RTT sample
	reoWndMult   int      // adaptive multiplier on the base window
	reoWndGrewAt sim.Time
	rackTimer    sim.TimerRef

	// Eifel-style spurious-retransmission accounting: loss declarations
	// whose packet was later acknowledged after all.
	spuriousPkts uint64
	spuriousRTOs uint64 // subset declared by an RTO episode

	// failure detection and recovery
	state       SubflowState
	consecRTOs  int    // RTO episodes since the last ACK
	backoff     int    // RTO doublings currently applied
	rtoEpochIdx uint64 // timeouts of packets sent before this don't open a new episode
	probeTimer  sim.TimerRef
	probeSeq    uint64
	fails       uint64
	downAt      sim.Time
	upAt        sim.Time

	// The two endpoints' sinks, as interface values built once: rxSink and
	// ackSink are this same subflow under another method set, so neither the
	// conversion nor a method-value closure allocates.
	rxSink  netem.Sink
	ackSink netem.Sink

	// metrics
	goodput        stats.Series // first-delivery bytes, bucketed
	deliveredBytes int64
	sentBytes      int64
	sentPkts       uint64
	lostPkts       uint64
	retxPkts       uint64
}

type (
	rxSink  Subflow
	ackSink Subflow
)

func (r *rxSink) Deliver(pkt *netem.Packet)  { (*Subflow)(r).receiverDeliver(pkt) }
func (a *ackSink) Deliver(pkt *netem.Packet) { (*Subflow)(a).senderAck(pkt) }

// ID returns the subflow's index within its connection.
func (s *Subflow) ID() int { return s.id }

// Path returns the netem path the subflow sends on.
func (s *Subflow) Path() *netem.Path { return s.path }

// SRTT returns the smoothed RTT estimate.
func (s *Subflow) SRTT() sim.Time { return s.srtt }

// Rate returns the current pacing rate (rate-based subflows; 0 otherwise).
func (s *Subflow) Rate() float64 { return s.curRate }

// CwndPkts returns the effective window in packets: the controller window
// for window-based subflows, the inflight cap for rate-based ones (huge when
// the controller sets none).
func (s *Subflow) CwndPkts() float64 {
	if s.wc != nil {
		return s.wc.Cwnd()
	}
	if capper, ok := s.rc.(cc.InflightCapper); ok {
		return capper.InflightCapBytes(s.conn.eng.Now(), s.srtt) / float64(DefaultMSS)
	}
	return 1e15
}

// InflightPkts returns the number of unresolved packets in flight.
func (s *Subflow) InflightPkts() int { return s.inflightPkts }

// PendingPkts returns the number of assigned-but-unsent segments.
func (s *Subflow) PendingPkts() int { return s.pending.len() + s.retx.len() }

// Goodput returns the subflow's first-delivery byte series.
func (s *Subflow) Goodput() *stats.Series { return &s.goodput }

// DeliveredBytes returns total first-delivery bytes.
func (s *Subflow) DeliveredBytes() int64 { return s.deliveredBytes }

// SentBytes returns total bytes put on the wire by this subflow, counting
// every transmission (retransmissions included). Since a segment can only be
// acknowledged on a subflow that transmitted it, DeliveredBytes ≤ SentBytes
// is a conservation invariant (checked by internal/simtest).
func (s *Subflow) SentBytes() int64 { return s.sentBytes }

// LostPkts returns the number of packets declared lost.
func (s *Subflow) LostPkts() uint64 { return s.lostPkts }

// SpuriousPkts returns how many loss declarations were later proven
// spurious by the lost packet's own acknowledgement arriving.
func (s *Subflow) SpuriousPkts() uint64 { return s.spuriousPkts }

// SpuriousRTOs returns the subset of spurious declarations that had fired an
// RTO episode (and so had their backoff undone).
func (s *Subflow) SpuriousRTOs() uint64 { return s.spuriousRTOs }

// CorrectedLostPkts returns losses net of spurious declarations — the
// transport's best estimate of packets the network actually dropped. Under
// reordering-only impairment it converges to zero once in-flight
// acknowledgements drain (checked by internal/simtest).
func (s *Subflow) CorrectedLostPkts() uint64 { return s.lostPkts - s.spuriousPkts }

// ReorderWindow returns the current RACK reordering window, or 0 while no
// reordering has been observed and dup-threshold detection is in effect.
func (s *Subflow) ReorderWindow() sim.Time {
	if !s.reoSeen {
		return 0
	}
	return s.reoWnd(s.conn.eng.Now())
}

// SentPkts returns the number of packet transmissions (including
// retransmissions).
func (s *Subflow) SentPkts() uint64 { return s.sentPkts }

// enqueue hands the subflow a newly assigned segment (taking over the
// caller's reference).
func (s *Subflow) enqueue(seg *segment) {
	s.pending.push(seg)
}

// init seeds the RTT estimators before any packet may be sent (as the
// connection handshake would).
func (s *Subflow) init() {
	s.srtt = s.path.BaseRTT()
	s.rttvar = s.srtt / 2
	s.reoWndMult = 1
	s.updateRTO()
	s.notePace()
	if s.rc != nil {
		// Until the first MI opens the subflow must not transmit.
		s.pacerIdle = true
	}
}

// begin starts the send machinery at the connection's start time.
func (s *Subflow) begin() {
	s.running = true
	if s.rc != nil {
		s.rollMI()
		s.pacerIdle = false
		s.pace()
	} else {
		s.trySend()
	}
}

// kick resumes sending after new data arrives or capacity frees up.
func (s *Subflow) kick() {
	if !s.conn.started || s.conn.closed || (s.rc != nil && !s.running) || s.state == SubflowFailed {
		return
	}
	if s.wc != nil {
		s.trySend()
		return
	}
	if s.pacerIdle {
		s.pacerIdle = false
		now := s.conn.eng.Now()
		if s.nextSend <= now {
			s.pace()
		} else {
			s.armPacer(s.nextSend)
		}
	} else if s.capBlocked {
		s.capBlocked = false
		s.pace()
	}
}

// ---- rate-based sending ----

// miMinPkts is the minimum number of packets an MI should cover so its
// loss-rate measurement is meaningful at low rates.
const miMinPkts = 10

func (s *Subflow) miDuration(rate float64) sim.Time {
	d := s.srtt
	// The floor keeps statistics meaningful without chaining a data-center
	// subflow (sub-millisecond RTT) to WAN decision cadences.
	if d < sim.Millisecond {
		d = sim.Millisecond
	}
	if rate > 0 {
		pktTime := sim.FromSeconds(miMinPkts * float64(DefaultMSS) * 8 / rate)
		if pktTime > d {
			d = pktTime
		}
	}
	if d > 500*sim.Millisecond {
		d = 500 * sim.Millisecond
	}
	// ±5% jitter decorrelates sibling subflows' MI boundaries.
	j := 0.95 + 0.1*s.conn.eng.Rand().Float64()
	return sim.FromSeconds(d.Seconds() * j)
}

// rollMI closes the current MI (if any) and opens the next one at the rate
// the controller chooses.
func (s *Subflow) rollMI() {
	now := s.conn.eng.Now()
	if s.miLen() > 0 {
		s.currentMI().closed = true
	}
	rate := s.rc.NextRate(now, s.srtt)
	if rate < 1 {
		rate = 1
	}
	if rate != s.curRate {
		s.conn.probes.RateChange(now, s.conn.Name, s.id, rate)
	}
	s.curRate = rate
	s.notePace()
	a := s.conn.arena
	mi := a.mis.Get()
	s.conn.miLive++
	*mi = monitorInterval{sf: s, seq: s.miSeq, start: now, end: now + s.miDuration(rate), rate: rate,
		rtt:  a.rtts.get(),
		refs: 2, // openMIs slot + end-of-MI timer
	}
	s.miSeq++
	s.openMIs = append(s.openMIs, mi)
	// Closure-free: the identity guard in miEndEvent makes a stale timer a
	// no-op, so the pooled no-handle Schedule suffices. The timer's
	// reference keeps mi from being recycled into a new current MI — which
	// would defeat that guard — before it fires.
	s.conn.eng.Schedule(mi.end, miEndEvent, mi)
}

// miEndEvent fires at an MI's scheduled end: if the MI is still the
// subflow's current one (failure drops open MIs, orphaning the timer), it
// rolls the next interval and resumes the send machinery.
func miEndEvent(a any) {
	mi := a.(*monitorInterval)
	s := mi.sf
	if s.miLen() > 0 && s.currentMI() == mi {
		s.rollMI()
		s.finalizeMIs()
		// A rate change moves the next send time; also resume an idle
		// pacer if data arrived without a kick (liveness backstop).
		if !s.pacerIdle && !s.capBlocked {
			s.pace()
		} else {
			s.conn.pump()
			s.kick()
		}
	}
	s.conn.releaseMI(mi) // the fired timer's reference
}

func (s *Subflow) miLen() int { return len(s.openMIs) - s.miHead }

func (s *Subflow) currentMI() *monitorInterval {
	return s.openMIs[len(s.openMIs)-1]
}

// finalizeMIs delivers completed MI statistics to the controller, in order.
// Resolved MIs are consumed via a head index (not re-slicing) so the queue's
// capacity is reused; records may still reference a consumed MI (late
// spurious corrections), which is safe because each holds a reference that
// keeps the struct out of the arena — only its rtt-sample array, which
// nothing reads after stats(), goes home at once.
func (s *Subflow) finalizeMIs() {
	now := s.conn.eng.Now()
	for s.miHead < len(s.openMIs) && s.openMIs[s.miHead].resolved(now) {
		mi := s.openMIs[s.miHead]
		s.openMIs[s.miHead] = nil
		s.miHead++
		s.rc.OnMIComplete(mi.stats())
		s.conn.retireMI(mi)
	}
	if s.miHead == len(s.openMIs) {
		s.openMIs = s.openMIs[:0]
		s.miHead = 0
	}
}

// dropOpenMIs abandons every open MI (subflow failure, teardown). That
// orphans the pending miEndEvent timer — its identity check fails on an
// empty queue — so no stale OnMIComplete reaches the controller. Every
// packet of a dropped interval is resolved (lost or torn down), so nothing
// samples into it again and its buffers can go home.
func (s *Subflow) dropOpenMIs() {
	for i := s.miHead; i < len(s.openMIs); i++ {
		s.conn.retireMI(s.openMIs[i])
		s.openMIs[i] = nil
	}
	s.openMIs = s.openMIs[:0]
	s.miHead = 0
}

// paceEvent and rtoEvent are static callbacks for sim.ScheduleRef:
// scheduling them allocates nothing — no closure, and the Timer itself is
// pooled by the engine.
func paceEvent(a any) { a.(*Subflow).pace() }

func rtoEvent(a any) { a.(*Subflow).onRTOTimer() }

// armRTO makes the retransmission timer fire no later than at.
func (s *Subflow) armRTO(at sim.Time) {
	if s.rtoTimer.Pending() && s.rtoTimerAt <= at {
		return
	}
	s.rtoTimer.Stop()
	s.rtoTimerAt, s.rtoTimer = at, s.conn.eng.ScheduleRef(at, rtoEvent, s)
}

func (s *Subflow) armPacer(at sim.Time) {
	s.pacerTimer.Stop()
	s.pacerTimer = s.conn.eng.ScheduleRef(at, paceEvent, s)
}

// pace transmits the next packet if the pacing schedule and inflight cap
// allow, then re-arms itself.
func (s *Subflow) pace() {
	now := s.conn.eng.Now()
	if now < s.nextSend {
		s.armPacer(s.nextSend)
		return
	}
	if capper, ok := s.rc.(cc.InflightCapper); ok {
		if float64(s.inflightBytes+DefaultMSS) > capper.InflightCapBytes(now, s.srtt) {
			s.capBlocked = true
			return // resumed by the next ack
		}
	}
	seg := s.nextSegment()
	if seg == nil {
		// The queue drained at transmit time: ask the scheduler for more
		// before going idle (the kernel scheduler runs on every dequeue).
		s.conn.pump()
		seg = s.nextSegment()
	}
	if seg == nil {
		s.pacerIdle = true
		return // resumed by kick when data arrives
	}
	s.transmit(seg)
	if s.curRate < 1 {
		// A zero/negative rate models a stalled controller, not an
		// infinite inter-packet gap.
		s.curRate = 1
		s.notePace()
	}
	gap := sim.FromSeconds(float64(seg.size) * 8 / s.curRate)
	if s.nextSend < now {
		s.nextSend = now
	}
	s.nextSend += gap
	s.armPacer(s.nextSend)
}

// ---- window-based sending ----

func (s *Subflow) trySend() {
	for float64(s.inflightPkts) < s.wc.Cwnd() {
		seg := s.nextSegment()
		if seg == nil {
			s.conn.pump()
			seg = s.nextSegment()
		}
		if seg == nil {
			return
		}
		s.transmit(seg)
	}
}

// ---- common send path ----

// nextSegment returns the next segment to transmit: retransmissions first,
// then assigned new data, pulling from the connection when empty. The
// returned segment carries its queue reference (transferred to the caller).
func (s *Subflow) nextSegment() *segment {
	for s.retx.len() > 0 {
		seg := s.retx.pop()
		if seg.delivered {
			s.conn.releaseSeg(seg) // superseded retransmission
			continue
		}
		s.retxPkts++
		s.conn.probes.Retransmit(s.conn.eng.Now(), s.conn.Name, s.id, seg.size)
		return seg
	}
	if s.pending.len() == 0 {
		return nil
	}
	seg := s.pending.peek()
	// Receive-window gate: new data beyond what the receiver can buffer
	// stays queued (retransmissions above always pass — they fill holes).
	if seg.off+int64(seg.size) > s.conn.rwndLimit() {
		return nil
	}
	return s.pending.pop()
}

func (s *Subflow) transmit(seg *segment) {
	now := s.conn.eng.Now()
	rec := s.conn.acquireRec()
	rec.sf, rec.seg, rec.idx, rec.size, rec.sentAt = s, seg, s.sendIdx, seg.size, now
	rec.refs = 2 // outstanding slot + network packet Meta
	s.sendIdx++
	s.sentPkts++
	s.sentBytes += int64(seg.size)
	s.inflightBytes += seg.size
	s.inflightPkts++
	s.outstanding = append(s.outstanding, rec)
	if s.rc != nil {
		mi := s.currentMI()
		rec.mi = mi
		mi.refs++
		mi.onSend(seg.size)
	}
	rec.rtoAt = now + s.backedOffRTO()
	s.armRTO(rec.rtoAt)
	s.path.Send(seg.size, rec, s.rxSink, nil)
}

// receiverDeliver runs at the receiving endpoint and acknowledges every data
// packet at once: the packet's record goes back as the feedback packet's
// Meta, carrying the network reference its delivery transferred (released
// after senderAck).
func (s *Subflow) receiverDeliver(pkt *netem.Packet) {
	rec := pkt.Meta.(*pktRec)
	if s.conn.closed {
		// The receiver is gone: drop the packet's Meta reference (teardown
		// already released the rest) instead of acknowledging.
		s.conn.releaseRec(rec)
		return
	}
	s.conn.onArrival(rec.seg.off, rec.size)
	s.path.SendFeedback(rec, s.ackSink)
}

// senderAck processes one acknowledgement back at the sender: the
// per-packet bookkeeping (ackOne), then the pipeline of loss detection, head
// advance, monitor-interval finalization and send-machinery resumption.
// Afterwards the record's network reference is released (the feedback
// *Packet itself is released by the path right after this returns).
func (s *Subflow) senderAck(fb *netem.Packet) {
	rec := fb.Meta.(*pktRec)
	if !s.conn.closed {
		fresh, spurious := s.ackOne(rec)
		switch {
		case s.conn.closed:
			// A completion callback closed the connection.
		case fresh:
			s.ackPipeline()
		case spurious:
			// A spurious acknowledgement skips detection and head advance:
			// the inflight ledger was settled at loss declaration, so only
			// the send machinery resumes.
			s.conn.pump()
			s.kick()
		}
	}
	s.conn.releaseRec(rec)
}

// ackOne applies the per-packet bookkeeping of one acknowledgement:
// RTT/ledger/MI updates and RACK state. It reports whether the record was
// newly acknowledged (fresh) or proved an earlier loss declaration wrong
// (spurious); neither holds for a duplicate.
func (s *Subflow) ackOne(rec *pktRec) (fresh, spurious bool) {
	now := s.conn.eng.Now()
	if rec.acked {
		return false, false
	}
	// Any acknowledgement proves the path still forwards packets: reset the
	// failure detector and the RTO backoff (RFC 6298 §5.7).
	s.consecRTOs, s.backoff = 0, 0
	if rec.lost {
		// Eifel-style spurious-retransmission repair: the "lost" packet's
		// acknowledgement arrived after all, so the declaration — and every
		// penalty charged on its back — was wrong. Undo what is still
		// undoable: move the bytes from the MI's loss column back to acked
		// (so the corrected loss rate, zero under pure reordering, is what
		// reaches the controller), widen the RACK reordering window so the
		// mistake is not repeated, and let a window controller restore its
		// pre-reaction state. The RTO backoff was already reset above. The
		// inflight ledger was settled when the packet was declared lost.
		rec.acked = true
		s.spuriousPkts++
		if rec.lostByRTO {
			s.spuriousRTOs++
		}
		s.reoSeen = true
		s.growReoWnd(now)
		if rec.mi != nil {
			// If the MI already resolved and reported, the correction is
			// lost; the widened window confines that to early spurious marks.
			rec.mi.onSpurious(rec.size)
		}
		if sr, ok := s.controller().(cc.SpuriousRepairer); ok {
			sr.OnSpuriousLoss(now, rec.lostByRTO)
		}
		s.conn.probes.SpuriousRetx(now, s.conn.Name, s.id, rec.size, rec.lostByRTO)
		s.deliverOnce(rec.seg, now)
		return false, true
	}
	rec.acked = true
	rtt := now - rec.sentAt
	s.updateRTT(rtt)
	s.inflightBytes -= rec.size
	s.inflightPkts--
	s.deliverOnce(rec.seg, now)
	s.conn.onRTTSample(now, rtt)
	s.conn.probes.RTTSample(now, s.conn.Name, s.id, rtt)
	if s.conn.closed {
		// The completion callback closed the connection: its intervals are
		// retired and its controller must not hear from it again.
		return true, false
	}

	if rec.mi != nil {
		rec.mi.onAck(rec.size, rec.sentAt, rtt)
	}
	if s.wc != nil {
		s.wc.OnAck(now, rtt, 1)
	}
	// RACK bookkeeping: track the min RTT (reordering-window base), flag
	// the first out-of-send-order acknowledgement, and advance the most
	// recently sent delivered packet.
	if s.minRTT == 0 || rtt < s.minRTT {
		s.minRTT = rtt
	}
	if s.ackedAny && rec.idx < s.maxAckedIdx {
		s.reoSeen = true
	}
	if !s.ackedAny || rec.idx > s.maxAckedIdx {
		s.maxAckedIdx = rec.idx
	}
	s.ackedAny = true
	if rec.sentAt >= s.rackXmit {
		s.rackXmit = rec.sentAt
		s.rackRTT = rtt
	}
	return true, false
}

// ackPipeline is the tail of acknowledgement processing: loss detection,
// head advance, MI finalization, and send-machinery resumption.
func (s *Subflow) ackPipeline() {
	now := s.conn.eng.Now()
	// Loss detection: dup-threshold ordering while acks arrive in order;
	// once reordering has been observed, time-based RACK marking (the dup
	// threshold would misread every reordered flight as loss). The
	// dup-threshold walk uses the highest acked index, which while acks
	// arrive in order is exactly the acked packet's index.
	if s.reoSeen {
		s.rackDetect(now)
	} else {
		s.detectReordering(s.maxAckedIdx)
	}
	s.advanceHead()
	if s.rc != nil {
		s.finalizeMIs()
	}
	// Freed window/cap: resume sending.
	if s.wc != nil {
		s.trySend()
	} else if s.capBlocked {
		s.capBlocked = false
		s.pace()
	}
	s.conn.pump()
	s.kick()
}

const dupThreshold = 3

// rackSweepEvent is the static callback for the RACK recheck timer: packets
// that were inside the reordering window when last inspected are re-examined
// once the window has elapsed on the clock.
func rackSweepEvent(a any) {
	s := a.(*Subflow)
	s.rackTimer = sim.TimerRef{}
	s.rackDetect(s.conn.eng.Now())
	s.advanceHead()
	if s.rc != nil {
		s.finalizeMIs()
	}
	s.conn.pump()
	s.kick()
}

// rackDetect marks unresolved packets lost once the reordering window rules
// out late arrival (RFC 8985 model): a packet is lost when something sent
// more than reoWnd later has already been delivered, or when its own age
// exceeds the delivering RTT plus the window. Packets still inside the
// window get a recheck timer instead of a verdict.
func (s *Subflow) rackDetect(now sim.Time) {
	// ackedAny gates validity of rackXmit/rackRTT (a plain zero check would
	// misread packets legitimately sent at virtual time 0).
	if !s.reoSeen || !s.ackedAny || s.state == SubflowFailed {
		return
	}
	reoWnd := s.reoWnd(now)
	var nextCheck sim.Time
	for i := s.outHead; i < len(s.outstanding); i++ {
		rec := s.outstanding[i]
		if rec == nil || rec.acked || rec.lost {
			continue
		}
		if rec.sentAt > s.rackXmit {
			break // sent after the newest delivery: no evidence against it
		}
		deadline := rec.sentAt + s.rackRTT + reoWnd
		if s.rackXmit-rec.sentAt > reoWnd || now >= deadline {
			s.conn.probes.RackMark(now, s.conn.Name, s.id, rec.size, reoWnd)
			s.markLost(rec, false)
			continue
		}
		if nextCheck == 0 || deadline < nextCheck {
			nextCheck = deadline
		}
	}
	if nextCheck > now && !s.rackTimer.Pending() {
		s.rackTimer = s.conn.eng.ScheduleRef(nextCheck, rackSweepEvent, s)
	}
}

// growReoWnd widens the reordering window (doubling the multiplier, capped)
// after a proven-spurious loss declaration: the window was evidently too
// small for the path's actual reordering depth.
func (s *Subflow) growReoWnd(now sim.Time) {
	if s.reoWndMult < 16 {
		s.reoWndMult *= 2
	}
	s.reoWndGrewAt = now
}

// reoWnd returns the current RACK reordering window: a quarter of the
// path's min RTT scaled by the adaptive multiplier, decaying one halving
// per 16 srtt without fresh spurious evidence, capped at one smoothed RTT.
func (s *Subflow) reoWnd(now sim.Time) sim.Time {
	for s.reoWndMult > 1 && s.srtt > 0 && now-s.reoWndGrewAt > 16*s.srtt {
		s.reoWndMult /= 2
		s.reoWndGrewAt += 16 * s.srtt
	}
	base := s.minRTT
	if base == 0 {
		base = s.srtt
	}
	w := base / 4 * sim.Time(s.reoWndMult)
	if w > s.srtt {
		w = s.srtt
	}
	return w
}

func (s *Subflow) detectReordering(ackedIdx uint64) {
	for i := s.outHead; i < len(s.outstanding); i++ {
		rec := s.outstanding[i]
		if rec.idx+dupThreshold > ackedIdx {
			break
		}
		if !rec.acked && !rec.lost {
			s.markLost(rec, false)
		}
	}
}

func (s *Subflow) advanceHead() {
	for s.outHead < len(s.outstanding) {
		rec := s.outstanding[s.outHead]
		if !rec.acked && !rec.lost {
			break
		}
		s.outstanding[s.outHead] = nil
		s.outHead++
		s.conn.releaseRec(rec) // the outstanding slot's reference
	}
	if s.outHead > 64 && s.outHead*2 > len(s.outstanding) {
		// Compact in place: the live suffix slides down over the consumed
		// prefix, reusing the backing array instead of allocating a copy.
		// The array thus settles at about twice the flight, which the
		// recycled arrays of a churn workload's long sessions stay within.
		n := copy(s.outstanding, s.outstanding[s.outHead:])
		tail := s.outstanding[n:]
		for i := range tail {
			tail[i] = nil
		}
		s.outstanding = s.outstanding[:n]
		s.outHead = 0
	}
}

// onRTOTimer fires the subflow's one retransmission timer. Each record keeps
// the deadline it was sent with; every unresolved record that is due times
// out, in send order, and the timer re-arms at the earliest deadline left.
// Acknowledgements never touch the timer, so a fire may find nothing due.
func (s *Subflow) onRTOTimer() {
	s.rtoTimer = sim.TimerRef{}
	now, next := s.conn.eng.Now(), sim.Time(math.MaxInt64)
	// outstanding[outHead:] holds consecutive send indices ending at
	// sendIdx-1 and everything before the head is resolved. A timeout may
	// advance the head or compact the slice, so the walk resumes by index.
	head := func() uint64 { return s.sendIdx - uint64(len(s.outstanding)-s.outHead) }
	for idx := head(); idx < s.sendIdx; idx = max(idx+1, head()) {
		rec := s.outstanding[len(s.outstanding)-int(s.sendIdx-idx)]
		if rec.acked || rec.lost {
			continue
		}
		if rec.rtoAt > now {
			next = min(next, rec.rtoAt)
			continue
		}
		// Count RTO episodes, not timeouts: every packet of a flight times
		// out together, which must read as one path event, not one per
		// packet. A timeout opens a new episode only if the packet was sent
		// at or after the previous episode's close.
		if rec.idx >= s.rtoEpochIdx {
			s.rtoEpochIdx = s.sendIdx
			s.consecRTOs++
			if s.backoff < 16 {
				s.backoff++
			}
			// Guarded: backedOffRTO does real work, unlike the emit helper itself.
			if s.conn.probes != nil {
				s.conn.probes.RTOBackoff(now, s.conn.Name, s.id, s.backedOffRTO(), s.consecRTOs)
			}
		}
		s.markLost(rec, true)
		s.advanceHead()
		if s.rc != nil {
			s.finalizeMIs()
		}
		if s.conn.failThreshold > 0 && s.consecRTOs >= s.conn.failThreshold {
			s.fail() // resolves the rest and stops the timer
			return
		}
		s.kick()
	}
	if next < math.MaxInt64 {
		s.armRTO(next)
	}
}

func (s *Subflow) markLost(rec *pktRec, isRTO bool) {
	rec.lost = true
	rec.lostByRTO = isRTO
	s.lostPkts++
	s.inflightBytes -= rec.size
	s.inflightPkts--
	if rec.mi != nil {
		rec.mi.onLost(rec.size)
	}
	if !rec.seg.delivered {
		rec.seg.refs++ // the retransmission queue's reference
		s.retx.push(rec.seg)
	}
	if s.wc != nil && rec.idx >= s.recoverIdx {
		// One congestion reaction per window of data.
		s.recoverIdx = s.sendIdx
		if isRTO {
			s.wc.OnRTO(s.conn.eng.Now())
		} else {
			s.wc.OnLossEvent(s.conn.eng.Now())
		}
	}
}

func (s *Subflow) deliverOnce(seg *segment, now sim.Time) {
	if seg.delivered {
		return
	}
	seg.delivered = true
	s.deliveredBytes += int64(seg.size)
	s.goodput.Add(now, float64(seg.size))
	s.conn.onDelivered(seg, now)
}

// ---- RTT estimation (RFC 6298 style) ----

func (s *Subflow) updateRTT(rtt sim.Time) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		d := s.srtt - rtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.updateRTO()
	s.notePace()
}

// notePace recomputes pktsPerRTT after curRate or srtt changed.
func (s *Subflow) notePace() {
	s.pktsPerRTT = s.curRate * s.srtt.Seconds() / 8 / float64(DefaultMSS)
}

func (s *Subflow) updateRTO() {
	// Like Linux, the variance term is floored at the minimum RTO so that
	// rttvar decaying on a stable path cannot drive RTO down to srtt (which
	// would spuriously time out every packet once srtt exceeds the floor).
	varTerm := 4 * s.rttvar
	if varTerm < s.conn.minRTO {
		varTerm = s.conn.minRTO
	}
	rto := s.srtt + varTerm
	if rto > 60*sim.Second {
		rto = 60 * sim.Second
	}
	s.rto = rto
}

func (s *Subflow) String() string {
	return fmt.Sprintf("%s/sf%d", s.conn.Name, s.id)
}
