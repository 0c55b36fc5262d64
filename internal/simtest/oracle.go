package simtest

import (
	"fmt"
	"sort"

	"mpcc/internal/exp"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
)

// Invariant names, used to correlate a shrunk scenario with the original
// failure (the shrinker only accepts candidates that still violate the same
// invariant).
const (
	InvTimeMonotonic  = "time-monotonic"    // event timestamps never decrease, never pass the horizon
	InvQueueBound     = "queue-bound"       // queue depth ≤ configured buffer + one in-service packet
	InvSchedOnFailed  = "sched-on-failed"   // no scheduler picks on a failed subflow
	InvSubflowState   = "subflow-state"     // down/up transitions alternate
	InvRateBounds     = "rate-bounds"       // controller rates within [MinRateBps, MaxRateBps]
	InvConservation   = "link-conservation" // injected = delivered + dropped + in-queue per link
	InvByteLedger     = "byte-ledger"       // acked ≤ received ≤ offered; delivered ≤ sent per subflow
	InvDelivery       = "expect-delivery"   // flagged file flows complete by the horizon
	InvCleanLoss      = "clean-loss"        // zero corrected loss on lossless reordered paths
	InvProgressStall  = "progress-stall"    // no delivery gap beyond k·RTO on lossless paths
	InvPolicerEnv     = "policer-envelope"  // policed bytes within the rate/burst contract
	InvHandoverSched  = "handover-schedule" // handovers fire exactly on their scheduled instants
	InvTraceEnv       = "trace-envelope"    // trace-replay links never deliver beyond the traced rate
	InvTraceDetermin  = "trace-determinism" // same scenario ⇒ same trace hash
	InvParallelIdent  = "parallel-identity" // sequential and parallel execution agree
	InvSnapshotReplay = "snapshot-replay"   // replaying the trace rebuilds the live registry snapshot
	InvShardIdentity  = "shard-identity"    // every shard count yields the same trace and snapshot
	InvSessionLedger  = "session-ledger"    // accepted = completed + aborted + active; arrivals = accepted + abandoned
	InvServerBudget   = "server-budget"     // per-server conns ≤ cap and reserved bytes ≤ budget, at all times
	InvConnLeak       = "conn-leak"         // closed sessions return every pooled buffer after the drain window
)

// progressStallBound is the default forward-progress ceiling for lossless
// reordered runs: 5× the transport's floor RTO. On a path that reorders but
// never drops, RACK repairs every spurious declaration within a reordering
// window (≤ one srtt), so a delivery gap of several minimum-RTOs means data
// was stranded, not delayed.
const progressStallBound = 5 * transport.DefaultMinRTO

// Violation is one observed invariant breach.
type Violation struct {
	Invariant string
	At        sim.Time // virtual time of the offending event (0 for final checks)
	Detail    string
}

// maxViolations caps how many violations an oracle records verbatim; one
// broken invariant often fires on every subsequent event, and the first few
// occurrences carry all the signal.
const maxViolations = 32

// pktSlack is the per-link queue-depth slack the oracle allows over the
// configured buffer: drop-tail admission does not charge the in-service
// packet against the buffer (see netem.Link.enqueue), so true occupancy may
// exceed the buffer by at most one maximum-size packet.
const pktSlack = 1500

type flowSF struct {
	flow string
	sf   int32
}

type rateBound struct{ min, max float64 }

// Oracle is an obs.Sink that checks cross-layer invariants live as events
// stream out of a run, plus a set of end-of-run conservation checks against
// the final transport and link state (Finalize). One oracle audits one run.
type Oracle struct {
	violations []Violation
	dropped    int // violations beyond maxViolations

	lastAt  sim.Time
	horizon sim.Time // learned from the run-start event

	net    *topo.Net
	down   map[flowSF]bool
	bounds map[string]rateBound // flow → controller rate bounds

	// bufBound overrides the live buffer readout per link — the hook the
	// injected-violation tests use to prove the oracle catches a breach.
	bufBound map[string]int

	expectDelivery map[string]int64 // flow → file bytes that must complete

	// Hostile-path expectations, armed on reorder-only scenarios. Both are
	// gated at Finalize on the run having recorded zero link drops: drop-tail
	// overflow is possible in any congested scenario, and a real drop makes a
	// non-zero corrected loss or a recovery stall legitimate.
	expectCleanLoss map[string]bool     // flow → corrected loss must be 0 once complete
	expectProgress  map[string]sim.Time // flow → max tolerated delivery gap

	// Adversarial-path expectations. expectHandover holds, per link, the
	// sorted virtual times its scheduled handovers must fire at — each
	// handover event pops its head, leftovers that were due by the end of the
	// run are violations at Finalize.
	// polEnv overrides the contract-derived policer-conformance envelope per
	// link (the injected-violation hook, mirroring bufBound).
	expectHandover map[string][]sim.Time
	polEnv         map[string]float64
}

// NewOracle returns an oracle with no flow-specific knowledge; register
// rate bounds and delivery expectations before the run starts.
func NewOracle() *Oracle {
	return &Oracle{
		down:            make(map[flowSF]bool),
		bounds:          make(map[string]rateBound),
		bufBound:        make(map[string]int),
		expectDelivery:  make(map[string]int64),
		expectCleanLoss: make(map[string]bool),
		expectProgress:  make(map[string]sim.Time),
		expectHandover:  make(map[string][]sim.Time),
		polEnv:          make(map[string]float64),
	}
}

// expectHandovers registers the exact virtual times link must execute a
// handover at. Multiple registrations merge; times are kept sorted so the
// live check can pop arrivals in time order.
func (o *Oracle) expectHandovers(link string, times []sim.Time) {
	merged := append(o.expectHandover[link], times...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	o.expectHandover[link] = merged
}

// OverridePolicerEnvelope pins the policer-conformance envelope for a link
// in bytes, replacing the contract-derived bound — the injected-violation
// hook, mirroring OverrideBufferBound.
func (o *Oracle) OverridePolicerEnvelope(link string, bytes float64) {
	o.polEnv[link] = bytes
}

// ExpectRateBounds registers the [min, max] bits/s envelope every
// mi-decision and rate-change event of flow must respect.
func (o *Oracle) ExpectRateBounds(flow string, min, max float64) {
	o.bounds[flow] = rateBound{min, max}
}

// ExpectDelivery registers that flow must have acknowledged and reassembled
// at least bytes of stream data by the end of the run.
func (o *Oracle) ExpectDelivery(flow string, bytes int64) {
	o.expectDelivery[flow] = bytes
}

// ExpectCleanLoss registers that flow's corrected loss (declared losses
// minus spurious repairs) must be zero at the end of the run, provided the
// flow completed its transfer (so the repairing acknowledgements have
// drained) and no link dropped a packet.
func (o *Oracle) ExpectCleanLoss(flow string) {
	o.expectCleanLoss[flow] = true
}

// ExpectProgress registers that flow must never go longer than bound between
// consecutive first-time deliveries while it has data to move, provided no
// link dropped a packet.
func (o *Oracle) ExpectProgress(flow string, bound sim.Time) {
	o.expectProgress[flow] = bound
}

// OverrideBufferBound pins the oracle's queue bound for a link, replacing
// the live buffer readout. Lowering it below real occupancy is the standard
// way to prove the oracle catches violations end to end.
func (o *Oracle) OverrideBufferBound(link string, bytes int) {
	o.bufBound[link] = bytes
}

// bindNet gives the oracle live access to the built network (called from
// the scenario's Tweak, before any event fires).
func (o *Oracle) bindNet(net *topo.Net) { o.net = net }

// Violations returns everything recorded so far.
func (o *Oracle) Violations() []Violation { return o.violations }

func (o *Oracle) report(inv string, at sim.Time, format string, args ...any) {
	if len(o.violations) >= maxViolations {
		o.dropped++
		return
	}
	o.violations = append(o.violations, Violation{inv, at, fmt.Sprintf(format, args...)})
}

// queueBoundFor returns the depth ceiling for a link: the injected override
// when set, otherwise the link's current buffer plus one in-service packet.
func (o *Oracle) queueBoundFor(link string) (int, bool) {
	if b, ok := o.bufBound[link]; ok {
		return b, true
	}
	if o.net == nil {
		return 0, false
	}
	return o.net.Link(link).Buffer() + pktSlack, true
}

// Emit implements obs.Sink: the live invariant checks.
func (o *Oracle) Emit(e obs.Event) {
	// Utility samples are exempt from stream ordering: they carry the *MI's
	// end time* but are emitted when the interval's feedback accounting
	// completes, and under loss an MI's accounting can finish after its
	// successor's — so neither global nor per-subflow ordering is an
	// invariant for them. The horizon bound below still applies.
	if e.Kind != obs.KindUtility {
		if e.At < o.lastAt {
			o.report(InvTimeMonotonic, e.At, "event %v at %v after an event at %v", e.Kind, e.At, o.lastAt)
		}
		o.lastAt = e.At
	}
	if o.horizon > 0 && e.At > o.horizon {
		o.report(InvTimeMonotonic, e.At, "event %v at %v beyond horizon %v", e.Kind, e.At, o.horizon)
	}

	switch e.Kind {
	case obs.KindRunStart:
		o.horizon = sim.FromSeconds(e.Value)
	case obs.KindQueueDepth:
		if bound, ok := o.queueBoundFor(e.Link); ok && int(e.Bytes) > bound {
			o.report(InvQueueBound, e.At, "link %s queue depth %d exceeds bound %d", e.Link, e.Bytes, bound)
		}
	case obs.KindSchedPick:
		if o.down[flowSF{e.Flow, e.Subflow}] {
			o.report(InvSchedOnFailed, e.At, "scheduler picked failed subflow %s/sf%d", e.Flow, e.Subflow)
		}
	case obs.KindSubflowDown:
		key := flowSF{e.Flow, e.Subflow}
		if o.down[key] {
			o.report(InvSubflowState, e.At, "subflow %s/sf%d declared down twice", e.Flow, e.Subflow)
		}
		o.down[key] = true
	case obs.KindSubflowUp:
		key := flowSF{e.Flow, e.Subflow}
		if !o.down[key] {
			o.report(InvSubflowState, e.At, "subflow %s/sf%d revived while not down", e.Flow, e.Subflow)
		}
		delete(o.down, key)
	case obs.KindMIDecision, obs.KindRateChange:
		if b, ok := o.bounds[e.Flow]; ok && (e.Value < b.min-0.5 || e.Value > b.max+0.5) {
			o.report(InvRateBounds, e.At, "%s rate %.0f outside [%.0f, %.0f] (%v)",
				e.Flow, e.Value, b.min, b.max, e.Kind)
		}
	case obs.KindHandover:
		times, ok := o.expectHandover[e.Link]
		if !ok {
			return // no schedule registered for this link; nothing to check
		}
		switch {
		case len(times) == 0:
			o.report(InvHandoverSched, e.At, "link %s handover with none left on the schedule", e.Link)
		case times[0] != e.At:
			o.report(InvHandoverSched, e.At, "link %s handover at %v, schedule says %v", e.Link, e.At, times[0])
			o.expectHandover[e.Link] = times[1:] // consume anyway so one slip doesn't cascade
		default:
			o.expectHandover[e.Link] = times[1:]
		}
	}
}

// armTraceEnvelope schedules one delivered-bytes audit per trace segment of
// a trace-replay link: during [at+i·dur, at+(i+1)·dur) the link serializes
// at the i-th traced rate, so the bytes it delivers in that window cannot
// exceed the traced budget plus the backlog it may still drain across the
// boundary (one buffer's worth admitted at the pre-step rate) and MTU
// rounding at both edges. The audits read link counters only and emit no
// probe events, so the replay trace hash is untouched.
func armTraceEnvelope(eng *sim.Engine, o *Oracle, l *netem.Link, name string,
	at, dur sim.Time, rates []float64, bufBytes int) {
	var lastDelivered uint64
	eng.At(at, func() { lastDelivered = l.Stats().DeliveredBytes })
	for i, mbps := range rates {
		mbps := mbps
		end := at + sim.Time(i+1)*dur
		budget := mbps*1e6*dur.Seconds()/8 + float64(bufBytes) + 2*pktSlack
		eng.At(end, func() {
			d := l.Stats().DeliveredBytes
			if float64(d-lastDelivered) > budget {
				o.report(InvTraceEnv, end,
					"link %s delivered %d bytes in a %v segment traced at %g Mbps (budget %.0f)",
					name, d-lastDelivered, dur, mbps, budget)
			}
			lastDelivered = d
		})
	}
}

// finalizeChurn audits the run's churn workload ledger: every admitted
// session must be accounted for, every arrival must have resolved by the
// horizon (retries are never scheduled past it), no server may ever have
// exceeded its caps, and every drain-window pool audit must have come back
// clean.
func (o *Oracle) finalizeChurn(st *exp.ChurnStats) {
	if st.Accepted != st.Completed+st.Aborted+st.Active {
		o.report(InvSessionLedger, 0,
			"accepted %d != completed %d + aborted %d + active %d",
			st.Accepted, st.Completed, st.Aborted, st.Active)
	}
	if st.Arrivals != st.Accepted+st.Abandoned {
		o.report(InvSessionLedger, 0,
			"arrivals %d != accepted %d + abandoned %d",
			st.Arrivals, st.Accepted, st.Abandoned)
	}
	for _, sv := range st.Servers {
		if sv.MaxConns > 0 && sv.PeakActive > sv.MaxConns {
			o.report(InvServerBudget, 0, "server %s peak conns %d exceeds cap %d",
				sv.Name, sv.PeakActive, sv.MaxConns)
		}
		if sv.BudgetBytes > 0 && sv.PeakBytes > sv.BudgetBytes {
			o.report(InvServerBudget, 0, "server %s peak reservation %d exceeds budget %d",
				sv.Name, sv.PeakBytes, sv.BudgetBytes)
		}
	}
	if st.Leaks > 0 {
		o.report(InvConnLeak, 0, "%d of %d post-close pool audits found live buffers",
			st.Leaks, st.LeakChecks)
	}
}

// Finalize runs the end-of-run conservation checks against the finished
// simulation and returns the full violation list (live + final).
func (o *Oracle) Finalize(res *exp.Result) []Violation {
	if res.Net != nil {
		for _, name := range res.Net.LinkNames() {
			l := res.Net.Link(name)
			st := l.Stats()
			drops := st.DropsQueueFull + st.DropsRandom + st.DropsOutage + st.DropsBurst + st.DropsPolicer
			injected := st.EnqueuedBytes // admitted bytes; drops never enter the queue
			if delivered, queued := st.DeliveredBytes, uint64(l.QueuedBytes()); injected != delivered+queued {
				o.report(InvConservation, 0,
					"link %s: enqueued %d ≠ delivered %d + in-queue %d (drops %d)",
					name, injected, delivered, queued, drops)
			}
			if bound, ok := o.queueBoundFor(name); ok && l.MaxQueuedBytes() > bound {
				o.report(InvQueueBound, 0, "link %s occupancy high-water %d exceeds bound %d",
					name, l.MaxQueuedBytes(), bound)
			}
			// Policer conformance: the contract admits at most one full bucket
			// plus the refill over the whole horizon; passing more means the
			// bucket under-charged (drops fell short of the token deficit).
			rate, burst, on := l.Policer()
			envelope, pinned := o.polEnv[name]
			if !pinned && on && o.horizon > 0 {
				envelope, pinned = float64(burst)+rate*o.horizon.Seconds()/8+pktSlack, true
			}
			if pinned && float64(st.PolicerPassedBytes) > envelope {
				o.report(InvPolicerEnv, 0,
					"link %s: policer passed %d bytes, contract envelope %.0f (rate %.0f bps, burst %d)",
					name, st.PolicerPassedBytes, envelope, rate, burst)
			}
			// A handover still on the schedule was owed only if it was due by
			// the time the link's engine ended: a run of finite transfers ends
			// at the last completion, before the horizon the script was laid
			// out against.
			times := o.expectHandover[name]
			end := l.Engine().Now()
			if owed := sort.Search(len(times), func(i int) bool { return times[i] > end }); owed > 0 {
				o.report(InvHandoverSched, 0,
					"link %s: %d scheduled handovers never fired by the end of the run at %v (next was due at %v)",
					name, owed, end, times[0])
			}
		}
	}
	for name, conn := range res.Conns {
		acked, received, offered := conn.AckedBytes(), conn.ReceivedBytes(), conn.OfferedBytes()
		if acked > received || received > offered {
			o.report(InvByteLedger, 0, "flow %s: acked %d / received %d / offered %d out of order",
				name, acked, received, offered)
		}
		for i, sf := range conn.Subflows() {
			if sf.DeliveredBytes() > sf.SentBytes() {
				o.report(InvByteLedger, 0, "flow %s sf%d: delivered %d > sent %d",
					name, i, sf.DeliveredBytes(), sf.SentBytes())
			}
			if sf.InflightPkts() < 0 {
				o.report(InvByteLedger, 0, "flow %s sf%d: negative inflight %d",
					name, i, sf.InflightPkts())
			}
		}
		if want, ok := o.expectDelivery[name]; ok {
			if conn.FCT() < 0 || conn.AckedBytes() < want || conn.InOrderBytes() < want {
				o.report(InvDelivery, 0,
					"flow %s: file of %d bytes not fully delivered (fct %v, acked %d, in-order %d)",
					name, want, conn.FCT(), conn.AckedBytes(), conn.InOrderBytes())
			}
		}
	}
	if len(o.expectCleanLoss)+len(o.expectProgress) > 0 && res.Net != nil {
		var drops uint64
		for _, name := range res.Net.LinkNames() {
			st := res.Net.Link(name).Stats()
			drops += st.DropsQueueFull + st.DropsRandom + st.DropsOutage + st.DropsBurst + st.DropsPolicer
		}
		// With any real drop the checks below don't apply: a genuinely lost
		// packet is correctly counted as lost, and its recovery may stall.
		if drops == 0 {
			for name, conn := range res.Conns {
				if o.expectCleanLoss[name] && conn.FCT() >= 0 {
					for i, sf := range conn.Subflows() {
						if c := sf.CorrectedLostPkts(); c != 0 {
							o.report(InvCleanLoss, 0,
								"flow %s sf%d: corrected loss %d on a lossless path (lost %d, spurious %d)",
								name, i, c, sf.LostPkts(), sf.SpuriousPkts())
						}
					}
				}
				if bound, ok := o.expectProgress[name]; ok {
					gap := conn.MaxDeliveryGap()
					// An unfinished flow is still moving data, so the quiet
					// stretch before the horizon counts as a gap too.
					if conn.FCT() < 0 && o.horizon > 0 && conn.LastDeliveredAt() > 0 {
						if tail := o.horizon - conn.LastDeliveredAt(); tail > gap {
							gap = tail
						}
					}
					if gap > bound {
						o.report(InvProgressStall, 0,
							"flow %s: forward progress stalled for %v (bound %v)", name, gap, bound)
					}
					if conn.LastDeliveredAt() == 0 && conn.OfferedBytes() > 0 {
						o.report(InvProgressStall, 0,
							"flow %s: offered %d bytes but delivered nothing", name, conn.OfferedBytes())
					}
				}
			}
		}
	}
	if res.Churn != nil {
		o.finalizeChurn(res.Churn)
	}
	if o.dropped > 0 {
		o.report(o.violations[len(o.violations)-1].Invariant, 0,
			"…and %d further violations suppressed", o.dropped)
	}
	return o.violations
}
