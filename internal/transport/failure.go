package transport

import (
	"mpcc/internal/cc"
	"mpcc/internal/netem"
	"mpcc/internal/sim"
)

// SubflowState is the failure detector's view of a subflow.
type SubflowState int

const (
	// SubflowActive is the normal sending state.
	SubflowActive SubflowState = iota
	// SubflowFailed means the failure detector declared the path dead:
	// the subflow sends nothing but periodic revival probes, schedulers
	// skip it, and its unacked data has been migrated to live siblings.
	SubflowFailed
)

func (st SubflowState) String() string {
	switch st {
	case SubflowActive:
		return "active"
	case SubflowFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Failure-detector defaults: a subflow is declared dead after
// DefaultFailThreshold consecutive RTO episodes with no intervening ACK, and
// while dead it probes the path every DefaultProbeInterval.
const (
	DefaultFailThreshold = 3
	DefaultProbeInterval = 500 * sim.Millisecond

	// maxRTO caps the exponentially backed-off retransmission timeout,
	// mirroring RFC 6298's recommended 60 s upper bound.
	maxRTO = 60 * sim.Second
)

// State returns the failure detector's view of the subflow.
func (s *Subflow) State() SubflowState { return s.state }

// Failed reports whether the subflow is currently declared dead.
func (s *Subflow) Failed() bool { return s.state == SubflowFailed }

// Fails returns how many times the subflow has been declared dead.
func (s *Subflow) Fails() uint64 { return s.fails }

// LastFailureAt returns when the subflow was last declared dead (0 if never).
func (s *Subflow) LastFailureAt() sim.Time { return s.downAt }

// LastRevivalAt returns when the subflow last revived (0 if never).
func (s *Subflow) LastRevivalAt() sim.Time { return s.upAt }

// backedOffRTO returns the retransmission timeout with exponential backoff
// applied: the base RTO doubled once per consecutive unanswered RTO episode,
// capped at maxRTO (RFC 6298 §5.5–5.7). An ACK resets the backoff.
func (s *Subflow) backedOffRTO() sim.Time {
	rto := s.rto
	for i := 0; i < s.backoff; i++ {
		rto *= 2
		if rto >= maxRTO {
			return maxRTO
		}
	}
	return rto
}

// controller returns the subflow's congestion controller regardless of
// family, for interface probing.
func (s *Subflow) controller() any {
	if s.rc != nil {
		return s.rc
	}
	return s.wc
}

// fail transitions the subflow to SubflowFailed: stop the send machinery,
// resolve everything in flight as lost without congestion-control callbacks
// (the path is gone, not congested), tell a FailureAware controller, migrate
// queued data to live siblings, and start revival probing.
func (s *Subflow) fail() {
	if s.state == SubflowFailed {
		return
	}
	s.state = SubflowFailed
	s.fails++
	s.downAt = s.conn.eng.Now()
	s.conn.probes.SubflowDown(s.downAt, s.conn.Name, s.id)
	s.pacerTimer.Stop()
	s.pacerTimer = sim.TimerRef{}
	s.rackTimer.Stop()
	s.rackTimer = sim.TimerRef{}
	s.rtoTimer.Stop()
	s.rtoTimer = sim.TimerRef{}
	s.pacerIdle = true
	s.capBlocked = false
	s.dropOpenMIs()
	for i := s.outHead; i < len(s.outstanding); i++ {
		rec := s.outstanding[i]
		if rec == nil || rec.acked || rec.lost {
			continue
		}
		rec.lost = true
		s.lostPkts++
		s.inflightBytes -= rec.size
		s.inflightPkts--
		if !rec.seg.delivered {
			rec.seg.refs++ // the retransmission queue's reference
			s.retx.push(rec.seg)
		}
	}
	s.advanceHead()
	// Notify before migrating so re-queued data is not scheduled against
	// the dead subflow's published rate.
	if fa, ok := s.controller().(cc.FailureAware); ok {
		fa.OnSubflowDown()
	}
	s.conn.migrateFrom(s)
	s.scheduleProbe()
	s.conn.pump()
}

// revive returns a failed subflow to service after a probe was acknowledged.
// The controller restarts from its initial condition (via OnSubflowUp): the
// path that came back is not the path that went down.
func (s *Subflow) revive() {
	if s.state != SubflowFailed {
		return
	}
	s.state = SubflowActive
	s.upAt = s.conn.eng.Now()
	s.conn.probes.SubflowUp(s.upAt, s.conn.Name, s.id)
	s.consecRTOs, s.backoff = 0, 0
	s.rtoEpochIdx = s.sendIdx
	s.probeTimer.Stop()
	s.probeTimer = sim.TimerRef{}
	if fa, ok := s.controller().(cc.FailureAware); ok {
		fa.OnSubflowUp()
	}
	s.conn.adoptOrphans(s)
	if s.rc != nil {
		s.rollMI()
		s.pacerIdle = false
		s.pace()
	} else {
		s.trySend()
	}
	s.conn.pump()
}

// ---- revival probing ----

// probeRec is the in-flight record of one revival probe. The connection
// counts the copies in the network (probeLive), netem adjusting the count
// for clones and drops like a pktRec's, so a recycled connection waits for
// its last probe.
type probeRec struct {
	sf     *Subflow
	seq    uint64
	sentAt sim.Time
}

func (pr *probeRec) RetainMeta() { pr.sf.conn.probeLive++ }

func (pr *probeRec) ReleaseMeta() {
	c := pr.sf.conn
	c.probeLive--
	c.reclaim()
}

func (s *Subflow) scheduleProbe() {
	if s.conn.probeInterval <= 0 {
		return
	}
	s.probeTimer.Stop()
	s.probeTimer = s.conn.eng.ScheduleRef(s.conn.eng.Now()+s.conn.probeInterval, probeEvent, s)
}

func probeEvent(a any) { a.(*Subflow).sendProbe() }

// sendProbe transmits a single MSS-sized probe on the dead path. Probes
// carry no stream data; their only purpose is eliciting an acknowledgement.
func (s *Subflow) sendProbe() {
	if s.state != SubflowFailed {
		return
	}
	s.probeSeq++
	pr := &probeRec{sf: s, seq: s.probeSeq, sentAt: s.conn.eng.Now()}
	s.conn.probeLive++
	s.path.Send(DefaultMSS, pr, netem.SinkFunc(s.probeDeliver), nil)
	s.scheduleProbe()
}

// probeDeliver runs at the receiver when a probe survives the path; it
// immediately acknowledges.
func (s *Subflow) probeDeliver(pkt *netem.Packet) {
	pr := pkt.Meta.(*probeRec)
	if s.conn.closed {
		pr.ReleaseMeta()
		return
	}
	s.path.SendFeedback(pr, netem.SinkFunc(s.probeAck))
}

// probeAck runs back at the sender: the first acknowledged probe of the
// current failure episode revives the subflow.
func (s *Subflow) probeAck(fb *netem.Packet) {
	pr := fb.Meta.(*probeRec)
	pr.ReleaseMeta() // a reclaimed connection is reset only on reuse
	if s.conn.closed || s.state != SubflowFailed || pr.seq != s.probeSeq {
		return
	}
	s.updateRTT(s.conn.eng.Now() - pr.sentAt)
	s.revive()
}

// ---- connection-level migration ----

// nextLive returns the index of the first subflow after i (wrapping; -1
// starts at the first) that is neither except nor declared dead, or -1 if
// there is none.
func (c *Connection) nextLive(except *Subflow, i int) int {
	n := len(c.subflows)
	for j := 1; j <= n; j++ {
		k := (i + j) % n
		if s := c.subflows[k]; s != except && s.state != SubflowFailed {
			return k
		}
	}
	return -1
}

// migrateFrom re-queues a failed subflow's segments onto live siblings:
// already-sent data joins sibling retransmission queues (retransmissions
// bypass the receive-window gate — they fill the same holes), never-sent
// data joins sibling pending queues, each round-robin from the first live
// sibling. With no live sibling the segments are held at the connection
// until one revives. The queues are walked in place, so a failover
// allocates nothing.
func (c *Connection) migrateFrom(s *Subflow) {
	first := c.nextLive(s, -1)
	for _, q := range [...]*segQueue{&s.retx, &s.pending} {
		k := first
		for _, seg := range q.items() {
			switch {
			case seg.delivered:
				c.releaseSeg(seg)
			case k < 0:
				c.orphans.push(seg)
			case q == &s.retx:
				c.subflows[k].retx.push(seg)
				k = c.nextLive(s, k)
			default:
				c.subflows[k].pending.push(seg)
				k = c.nextLive(s, k)
			}
		}
		// Every live entry was transferred or released above.
		q.reset()
	}
	for _, sf := range c.subflows {
		sf.kick() // a no-op on a dead subflow
	}
}

// adoptOrphans hands segments stranded while every subflow was dead to the
// newly revived subflow.
func (c *Connection) adoptOrphans(s *Subflow) {
	for c.orphans.len() > 0 {
		seg := c.orphans.pop()
		if !seg.delivered {
			s.retx.push(seg)
		} else {
			c.releaseSeg(seg)
		}
	}
}
