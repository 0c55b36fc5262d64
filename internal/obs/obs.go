// Package obs is the unified cross-layer observability bus: every layer of
// a simulation — the emulated links (netem), the transport machinery
// (subflows, scheduler, failure detector), and the congestion controllers —
// emits typed probe events into one per-run Bus, from which sinks derive
// JSONL traces, aggregate metrics, or ad-hoc analyses.
//
// The paper's figures are all statements about internal dynamics (per-MI
// utility gradients, rate trajectories, queue buildup, loss bursts,
// scheduler starvation); the bus makes those dynamics observable from one
// place instead of one ad-hoc hook per layer.
//
// Design constraints, in priority order:
//
//  1. Zero cost when disabled. Every emit helper is safe on a nil *Bus and
//     returns after a single branch; call sites hold a plain *Bus field and
//     never allocate, so a run without probes is byte- and allocation-
//     identical to a run built before this package existed.
//  2. Deterministic when enabled. Events are emitted synchronously from the
//     single-threaded simulation engine, in event-execution order; sinks see
//     exactly one well-defined sequence per seed. The JSONL sink writes
//     fields in a fixed order with a fixed float format, so a fixed-seed
//     trace is byte-identical across repeat runs.
//  3. Cheap when enabled. Events are flat structs passed by value (no
//     boxing, no reflection); the built-in metrics registry updates by
//     pre-resolved handles, not name lookups.
package obs

import "mpcc/internal/sim"

// Kind identifies a probe event type.
type Kind uint8

// The probe event types, one per cross-layer observation point. Each kind's
// wire name, JSONL members and built-in counter are its row in layouts.
const (
	// KindMIDecision is a rate controller choosing the rate for a new
	// monitor interval (cc layer). State is the controller phase, Value the
	// chosen rate in bits/s.
	KindMIDecision Kind = iota
	// KindUtility is the utility of a completed monitor interval (cc
	// layer). Value is the utility, Aux the MI's configured rate in bits/s.
	KindUtility
	// KindRateChange is the transport applying a new pacing rate to a
	// subflow. Value is the rate in bits/s.
	KindRateChange
	// KindDrop is a link dropping a packet (netem layer). Cause explains
	// why, Bytes is the packet size.
	KindDrop
	// KindQueueDepth is a periodic sample of a link's queued bytes
	// (SampleQueues). Bytes is the depth.
	KindQueueDepth
	// KindRetransmit is a subflow retransmitting a lost segment. Bytes is
	// the segment size.
	KindRetransmit
	// KindRTOBackoff is a retransmission-timeout episode opening. Value is
	// the backed-off RTO in seconds, Aux the consecutive-episode count.
	KindRTOBackoff
	// KindSubflowDown is the failure detector declaring a subflow dead.
	KindSubflowDown
	// KindSubflowUp is a failed subflow reviving after a successful probe.
	KindSubflowUp
	// KindSchedPick is the multipath scheduler assigning a new segment to a
	// subflow. Bytes is the segment size.
	KindSchedPick
	// KindRunStart marks the beginning of one simulation run in a shared
	// trace (emitted by the experiment harness). Bytes is the seed, Value
	// the run horizon in seconds.
	KindRunStart
	// KindRunEnd marks the end of one simulation run.
	KindRunEnd
	// KindReorder is a link deliberately delivering a packet out of order
	// (netem reordering impairment). Bytes is the packet size, Value how
	// early the packet arrives relative to its in-order slot, in seconds.
	KindReorder
	// KindDuplicate is a link duplicating a packet (netem duplication
	// impairment). Bytes is the duplicated packet's size.
	KindDuplicate
	// KindAckCompress is the ACK channel deferring a feedback packet into a
	// compression slot (netem ACK-path impairment). Link carries the path
	// name, Value the deferral in seconds.
	KindAckCompress
	// KindRackMark is RACK-style time-based loss detection declaring a
	// packet lost. Bytes is the packet size, Value the reordering window in
	// seconds at the time of the mark.
	KindRackMark
	// KindSpuriousRetx is Eifel-style detection proving an earlier loss
	// declaration spurious: the original arrived after all. Bytes is the
	// packet size, Aux 1 when the spurious mark came from an RTO.
	KindSpuriousRetx
	// KindShaperDelay is a token-bucket shaper deferring a packet's
	// serialization until the bucket refills (netem shaper impairment).
	// Bytes is the packet size, Value the added delay in seconds.
	KindShaperDelay
	// KindHandover is a scheduled LEO-style handover stepping a link to a
	// new rate and base delay. Value is the new rate in bits/s, Aux the new
	// one-way propagation delay in seconds.
	KindHandover
	// KindRTTSample is a subflow acknowledging a packet: one smoothed-
	// RTT-input sample, emitted at ACK-processing time. Value is the
	// measured RTT in seconds.
	KindRTTSample
	// KindSessionOpen is a churn-workload session admitted by a server
	// (workload layer). Flow is the session, Link the server, Bytes the
	// object size, Aux the server's active-connection count after the open.
	KindSessionOpen
	// KindSessionClose is a session ending. State is the close reason
	// ("done", "abort", "idle", "handshake"), Value the session completion
	// time in seconds for "done" closes (-1 otherwise), Bytes the
	// acknowledged bytes, Aux the active count after the close.
	KindSessionClose
	// KindSessionReject is admission control shedding a session at the
	// accept point. Link is the server, State the exhausted resource
	// ("conns" or "budget"), Aux the retry attempt the rejection answered.
	KindSessionReject
	// KindSessionRetry is a rejected session scheduling a retry with
	// backoff. Value is the backoff delay in seconds, Aux the upcoming
	// attempt number (1-based).
	KindSessionRetry

	numKinds
)

// String returns the kind's wire name (its layouts row), or "unknown".
func (k Kind) String() string {
	if k < numKinds {
		return layouts[k].name
	}
	return "unknown"
}

// KindFromString returns the Kind named s, or ok=false.
func KindFromString(s string) (Kind, bool) {
	for k := range layouts {
		if layouts[k].name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// DropCause says why a link dropped a packet: netem hands it to the
// packet's drop callback and to the probe bus alike.
type DropCause uint8

// Drop causes.
const (
	CauseQueueFull DropCause = iota // drop-tail buffer overflow
	CauseRandom                     // i.i.d. non-congestion loss
	CauseOutage                     // link down or stalled at zero rate
	CauseBurst                      // Gilbert–Elliott bad-state burst loss
	CausePolicer                    // token-bucket policer deficit (non-queue-building)

	numCauses
)

var causeNames = [numCauses]string{"queue-full", "random", "outage", "burst", "policer"}

func (c DropCause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// CauseFromString returns the DropCause named s, or ok=false.
func CauseFromString(s string) (DropCause, bool) {
	for i, n := range causeNames {
		if n == s {
			return DropCause(i), true
		}
	}
	return 0, false
}

// Event is one probe record. It is a flat struct so emission never boxes:
// events pass to sinks by value. Which fields are meaningful depends on
// Kind (see the Kind constants); unused fields are zero ("" / 0 / -1 for
// Subflow).
type Event struct {
	At      sim.Time
	Kind    Kind
	Cause   DropCause
	Subflow int32  // subflow id within the flow, -1 when not applicable
	Flow    string // connection name ("" for link-scoped events)
	Link    string // link name ("" for flow-scoped events)
	State   string // controller phase (mi-decision/utility)
	Bytes   int64  // packet/segment size, queue depth, or run seed
	Value   float64
	Aux     float64
}

// Sink consumes probe events. Sinks are invoked synchronously from the
// simulation loop and must not retain references into the event (Event is a
// value type, so this is automatic).
type Sink interface {
	Emit(e Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(e Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// Bus fans probe events out to its sinks and, when a Registry is attached,
// folds them into aggregate metrics. The zero value is usable; a nil *Bus
// is the disabled state — every emit helper returns immediately.
type Bus struct {
	sinks []Sink
	reg   *Registry
}

// NewBus returns a bus delivering events to the given sinks.
func NewBus(sinks ...Sink) *Bus { return &Bus{sinks: sinks} }

// AddSink appends a sink. Sinks receive events in registration order.
func (b *Bus) AddSink(s Sink) { b.sinks = append(b.sinks, s) }

// SetRegistry attaches a metrics registry updated on every event (nil
// detaches).
func (b *Bus) SetRegistry(r *Registry) { b.reg = r }

// Registry returns the attached metrics registry, or nil. Safe on a nil bus.
func (b *Bus) Registry() *Registry {
	if b == nil {
		return nil
	}
	return b.reg
}

// Emit delivers an already-built event. It implements Sink, so buses
// compose: a controller-private bus can forward into a run-wide one. Safe
// on a nil bus.
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	if b.reg != nil {
		b.reg.record(&e)
	}
	for _, s := range b.sinks {
		s.Emit(e)
	}
}

// ---- typed emit helpers ----
//
// Each helper is the one-line probe a layer calls at its observation point.
// All are nil-safe: the disabled path is a single receiver check, and the
// arguments are plain values the caller already holds, so a disabled probe
// performs no allocation and no work.

// MIDecision records a controller choosing rateBps for a new MI while in
// the given phase.
func (b *Bus) MIDecision(at sim.Time, flow string, sf int, phase string, rateBps float64) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindMIDecision, Flow: flow, Subflow: int32(sf), State: phase, Value: rateBps})
}

// UtilitySample records the utility of a completed MI that was configured
// at rateBps.
func (b *Bus) UtilitySample(at sim.Time, flow string, sf int, phase string, rateBps, utility float64) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindUtility, Flow: flow, Subflow: int32(sf), State: phase, Value: utility, Aux: rateBps})
}

// RateChange records the transport applying a new pacing rate to a subflow.
func (b *Bus) RateChange(at sim.Time, flow string, sf int, rateBps float64) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindRateChange, Flow: flow, Subflow: int32(sf), Value: rateBps})
}

// Drop records a link dropping a packet.
func (b *Bus) Drop(at sim.Time, link string, cause DropCause, bytes int) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindDrop, Link: link, Cause: cause, Subflow: -1, Bytes: int64(bytes)})
}

// QueueDepth records a sample of a link's queued bytes.
func (b *Bus) QueueDepth(at sim.Time, link string, bytes int) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindQueueDepth, Link: link, Subflow: -1, Bytes: int64(bytes)})
}

// Retransmit records a subflow retransmitting a lost segment.
func (b *Bus) Retransmit(at sim.Time, flow string, sf int, bytes int) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindRetransmit, Flow: flow, Subflow: int32(sf), Bytes: int64(bytes)})
}

// RTOBackoff records a retransmission-timeout episode: the backed-off RTO
// now in force and how many consecutive episodes have fired without an ACK.
func (b *Bus) RTOBackoff(at sim.Time, flow string, sf int, rto sim.Time, consec int) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindRTOBackoff, Flow: flow, Subflow: int32(sf), Value: rto.Seconds(), Aux: float64(consec)})
}

// SubflowDown records the failure detector declaring a subflow dead.
func (b *Bus) SubflowDown(at sim.Time, flow string, sf int) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindSubflowDown, Flow: flow, Subflow: int32(sf)})
}

// SubflowUp records a failed subflow reviving.
func (b *Bus) SubflowUp(at sim.Time, flow string, sf int) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindSubflowUp, Flow: flow, Subflow: int32(sf)})
}

// SchedPick records the scheduler assigning a bytes-sized segment to a
// subflow.
func (b *Bus) SchedPick(at sim.Time, flow string, sf int, bytes int) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindSchedPick, Flow: flow, Subflow: int32(sf), Bytes: int64(bytes)})
}

// RunStart marks the beginning of a simulation run in a shared trace.
func (b *Bus) RunStart(seed int64, horizon sim.Time) {
	if b == nil {
		return
	}
	b.Emit(Event{At: 0, Kind: KindRunStart, Subflow: -1, Bytes: seed, Value: horizon.Seconds()})
}

// RunEnd marks the end of a simulation run.
func (b *Bus) RunEnd(at sim.Time) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindRunEnd, Subflow: -1})
}

// Reorder records a link deliberately delivering a packet early (out of
// order): the packet arrives at its serialization-done time plus a reduced
// delay instead of its in-order slot.
func (b *Bus) Reorder(at sim.Time, link string, bytes int, early sim.Time) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindReorder, Link: link, Subflow: -1, Bytes: int64(bytes), Value: early.Seconds()})
}

// Duplicate records a link duplicating a packet.
func (b *Bus) Duplicate(at sim.Time, link string, bytes int) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindDuplicate, Link: link, Subflow: -1, Bytes: int64(bytes)})
}

// AckCompress records the ACK channel deferring a feedback packet into a
// compression slot. path names the netem path (carried in the Link field).
func (b *Bus) AckCompress(at sim.Time, path string, deferral sim.Time) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindAckCompress, Link: path, Subflow: -1, Value: deferral.Seconds()})
}

// RackMark records RACK-style time-based loss detection declaring a packet
// lost, with the reordering window in force at the time.
func (b *Bus) RackMark(at sim.Time, flow string, sf int, bytes int, reoWnd sim.Time) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindRackMark, Flow: flow, Subflow: int32(sf), Bytes: int64(bytes), Value: reoWnd.Seconds()})
}

// SpuriousRetx records Eifel-style detection proving a loss declaration
// spurious (the original packet's acknowledgement arrived after the mark).
func (b *Bus) SpuriousRetx(at sim.Time, flow string, sf int, bytes int, wasRTO bool) {
	if b == nil {
		return
	}
	aux := 0.0
	if wasRTO {
		aux = 1
	}
	b.Emit(Event{At: at, Kind: KindSpuriousRetx, Flow: flow, Subflow: int32(sf), Bytes: int64(bytes), Aux: aux})
}

// ShaperDelay records a token-bucket shaper deferring a packet's
// serialization by d while the bucket refills.
func (b *Bus) ShaperDelay(at sim.Time, link string, bytes int, d sim.Time) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindShaperDelay, Link: link, Subflow: -1, Bytes: int64(bytes), Value: d.Seconds()})
}

// Handover records a scheduled handover stepping a link to a new rate and
// base one-way delay (LEO-style path churn).
func (b *Bus) Handover(at sim.Time, link string, rateBps float64, delay sim.Time) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindHandover, Link: link, Subflow: -1, Value: rateBps, Aux: delay.Seconds()})
}

// RTTSample records one per-ACK RTT measurement on a subflow.
func (b *Bus) RTTSample(at sim.Time, flow string, sf int, rtt sim.Time) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindRTTSample, Flow: flow, Subflow: int32(sf), Value: rtt.Seconds()})
}

// SessionOpen records admission control accepting a churn session: server,
// requested object size, and the active-connection count after the open.
func (b *Bus) SessionOpen(at sim.Time, session, server string, bytes int64, active int) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindSessionOpen, Flow: session, Link: server, Subflow: -1, Bytes: bytes, Aux: float64(active)})
}

// SessionClose records a session ending. reason is the close reason's
// string form; fct is the session completion time for "done" closes
// (negative otherwise); ackedBytes what the session delivered.
func (b *Bus) SessionClose(at sim.Time, session, server, reason string, fct sim.Time, ackedBytes int64, active int) {
	if b == nil {
		return
	}
	v := -1.0
	if fct >= 0 {
		v = fct.Seconds()
	}
	b.Emit(Event{At: at, Kind: KindSessionClose, Flow: session, Link: server, State: reason, Subflow: -1, Bytes: ackedBytes, Value: v, Aux: float64(active)})
}

// SessionReject records admission control shedding a session at the accept
// point. resource names what ran out ("conns" or "budget"); attempt is
// which try this rejection answered (0 = the first).
func (b *Bus) SessionReject(at sim.Time, session, server, resource string, attempt int) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindSessionReject, Flow: session, Link: server, State: resource, Subflow: -1, Aux: float64(attempt)})
}

// SessionRetry records a rejected session backing off before retry
// attempt number attempt (1-based).
func (b *Bus) SessionRetry(at sim.Time, session string, delay sim.Time, attempt int) {
	if b == nil {
		return
	}
	b.Emit(Event{At: at, Kind: KindSessionRetry, Flow: session, Subflow: -1, Value: delay.Seconds(), Aux: float64(attempt)})
}
