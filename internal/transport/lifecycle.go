package transport

import "mpcc/internal/sim"

// Connection lifecycle. A connection is open from Start until Close/Abort
// (explicit) or a watchdog timeout (idle/handshake) shuts it down. Teardown
// is synchronous for everything the connection owns: pending/retx/orphan
// segments, outstanding-slot packet references, every per-subflow timer,
// and the backing arrays its queues grew (handed back to the engine arena).
// References held by data packets still inside netem links and by
// acknowledgements on the reverse path cannot be reclaimed synchronously;
// the closed guards on the delivery/feedback sinks release each one as it
// drains, so the per-connection pool gauges (PoolInUse) return to zero once
// the engine goes idle — the churn leak test asserts exactly that. An owner
// done with a closed connection may Recycle it: once drained it goes back
// to the engine arena for the next NewConnection.

// CloseReason records why a connection shut down.
type CloseReason uint8

const (
	// CloseNone means the connection has not closed.
	CloseNone CloseReason = iota
	// CloseDone is a graceful close (transfer finished, Close called).
	CloseDone
	// CloseAborted is an explicit abort.
	CloseAborted
	// CloseIdle means the idle watchdog fired: no delivery progress for
	// the configured idle timeout.
	CloseIdle
	// CloseHandshake means nothing was ever delivered within the
	// handshake timeout of Start.
	CloseHandshake
)

func (r CloseReason) String() string {
	switch r {
	case CloseNone:
		return "open"
	case CloseDone:
		return "done"
	case CloseAborted:
		return "abort"
	case CloseIdle:
		return "idle"
	case CloseHandshake:
		return "handshake"
	default:
		return "unknown"
	}
}

// WithIdleTimeout aborts the connection when no first-delivery progress
// happens for d (0, the default, disables the idle watchdog).
func WithIdleTimeout(d sim.Time) ConnOption {
	return func(c *Connection) { c.idleTimeout = d }
}

// WithHandshakeTimeout aborts the connection if nothing at all has been
// delivered within d of Start — the open-loop analogue of a connect
// timeout (0, the default, disables it).
func WithHandshakeTimeout(d sim.Time) ConnOption {
	return func(c *Connection) { c.handshakeTimeout = d }
}

// SetOnClose installs a hook invoked exactly once, synchronously, when the
// connection shuts down for any reason.
func (c *Connection) SetOnClose(fn func(reason CloseReason, at sim.Time)) { c.onClose = fn }

// Close shuts the connection down gracefully. Safe to call from a
// completion callback; idempotent.
func (c *Connection) Close() { c.shutdown(CloseDone) }

func (c *Connection) shutdown(reason CloseReason) {
	if c.closed {
		return
	}
	c.closed = true
	c.closeReason = reason
	c.closedAt = c.eng.Now()
	c.watchdog.Stop()
	c.watchdog = sim.TimerRef{}
	for _, s := range c.subflows {
		s.teardown()
	}
	for c.orphans.len() > 0 {
		c.releaseSeg(c.orphans.pop())
	}
	c.orphans.handBack()
	c.rcv.handBack(&c.arena.islands)
	if c.onClose != nil {
		c.onClose(reason, c.closedAt)
	}
}

// teardown releases everything a subflow owns. In-flight packets (data,
// duplication clones, acknowledgements) keep their records alive until netem
// resolves them; the closed guards on receiverDeliver/senderAck release
// those references as they drain.
func (s *Subflow) teardown() {
	s.pacerTimer.Stop()
	s.pacerTimer = sim.TimerRef{}
	s.rackTimer.Stop()
	s.rackTimer = sim.TimerRef{}
	s.rtoTimer.Stop()
	s.rtoTimer = sim.TimerRef{}
	s.probeTimer.Stop()
	s.probeTimer = sim.TimerRef{}
	s.pacerIdle = true
	s.capBlocked = false
	a := s.conn.arena
	s.dropOpenMIs()
	a.openMIs.put(s.openMIs)
	s.openMIs = nil
	for i := s.outHead; i < len(s.outstanding); i++ {
		rec := s.outstanding[i]
		if rec == nil {
			continue
		}
		s.outstanding[i] = nil
		s.conn.releaseRec(rec) // the outstanding slot's reference
	}
	a.outstanding.put(s.outstanding)
	s.outstanding, s.outHead = nil, 0
	s.inflightBytes, s.inflightPkts = 0, 0
	for s.pending.len() > 0 {
		s.conn.releaseSeg(s.pending.pop())
	}
	s.pending.handBack()
	for s.retx.len() > 0 {
		s.conn.releaseSeg(s.retx.pop())
	}
	s.retx.handBack()
}

// ---- idle / handshake watchdog ----

// watchdogDeadline returns the next instant the watchdog should act and
// what a miss there means; (0, CloseNone) when nothing is being watched.
func (c *Connection) watchdogDeadline() (sim.Time, CloseReason) {
	if c.lastDeliveredAt == 0 {
		if c.handshakeTimeout > 0 {
			return c.startAt + c.handshakeTimeout, CloseHandshake
		}
		if c.idleTimeout > 0 {
			return c.startAt + c.idleTimeout, CloseIdle
		}
		return 0, CloseNone
	}
	if c.idleTimeout > 0 {
		return c.lastDeliveredAt + c.idleTimeout, CloseIdle
	}
	return 0, CloseNone
}

func (c *Connection) armWatchdog() {
	at, reason := c.watchdogDeadline()
	if reason == CloseNone {
		return
	}
	c.watchdog = c.eng.ScheduleRef(at, watchdogEvent, c)
}

// watchdogEvent fires at a candidate deadline: if delivery progress moved
// the real deadline forward in the meantime it re-arms instead of firing.
func watchdogEvent(a any) {
	c := a.(*Connection)
	c.watchdog = sim.TimerRef{}
	if c.closed {
		return
	}
	at, reason := c.watchdogDeadline()
	if reason == CloseNone {
		return
	}
	if c.eng.Now() >= at {
		c.shutdown(reason)
		return
	}
	c.watchdog = c.eng.ScheduleRef(at, watchdogEvent, c)
}

// PoolInUse returns how many pooled packet records and segments the
// connection currently holds out of the engine arena. Both return to zero
// once a closed connection's in-flight packets have drained (the leak gauge).
func (c *Connection) PoolInUse() (recs, segs int) { return c.recLive, c.segLive }

// Recycle is the owner's promise that it is done with a closed connection:
// nothing will read or drive it, its Subflows or their series again, and
// its controllers are free for another connection (no controller method
// runs after shutdown). The Connection, its Subflows and their storage go
// back to the engine arena once nothing in flight points at them any more —
// data packets and duplication clones in links, acknowledgements on the
// reverse path, pending end-of-MI timers, revival probes and a start event
// that never ran — and a later NewConnection on the same engine rebuilds on
// them.
// Nothing needs to call it: a connection never recycled is garbage-collected.
func (c *Connection) Recycle() {
	if !c.closed {
		panic("transport: Recycle of an open connection")
	}
	c.recycled = true
	c.reclaim()
}

// Generation counts the times the connection has gone back to the engine
// arena. A holder that keeps a recycled connection past its Recycle (an
// audit of its drain, say) records the generation then: while it reads the
// same value, the connection is the one it recycled and still out; once it
// moved, that connection drained and went home, and the object may already
// carry another owner's session.
func (c *Connection) Generation() uint64 { return c.gen }

// reclaim hands a recycled connection to the arena once drained. Every
// release that can be the last calls it; the connection is reset on reuse,
// not here, because the releaser may still be reading it.
func (c *Connection) reclaim() {
	if c.recycled && !c.reclaimed && c.recLive == 0 && c.segLive == 0 && c.miLive == 0 &&
		c.probeLive == 0 && !c.startPending {
		c.reclaimed = true
		c.gen++
		c.arena.conns.Put(c)
	}
}
