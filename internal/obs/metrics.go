package obs

import (
	"sort"

	"mpcc/internal/sim"
	"mpcc/internal/stats"
)

// Registry is a per-run metrics store: named counters, gauges, and
// histograms, plus pre-resolved handles for the metrics the bus maintains
// automatically from probe events (drops by cause, retransmits, queue-depth
// percentiles, MI counts per controller phase, failure-detector activity).
//
// A Registry belongs to one single-threaded simulation run and is not safe
// for concurrent use — which is also why the experiment harness creates one
// registry per run rather than sharing one across a parallel sweep.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Sketch

	// Pre-resolved handles for the event-driven builtins, so record never
	// builds a lookup key on the hot path: each kind's layouts counter, then
	// the metrics of the kinds whose arm in record does more than count.
	byKind       [numKinds]*Counter
	dropsByCause [numCauses]*Counter
	retxBytes    *Counter
	miByPhase    map[string]*Counter
	queueDepth   *Sketch
	utility      *Sketch
	rtt          *Sketch
	series       *seriesStore

	// Session-churn handles, resolved lazily on the first session event so
	// runs without a churn workload snapshot exactly the metric set they
	// always did (session events are per-session, not per-packet, so the
	// one-time lookup is off the hot path).
	sessAccepted   *Counter
	sessRejected   *Counter
	sessRetried    *Counter
	sessCompleted  *Counter
	sessAborted    *Counter
	sessActive     *Gauge
	sessActivePeak *Gauge
	sessFCT        *Sketch
}

// NewRegistry returns an empty registry with the builtin metrics
// pre-registered.
func NewRegistry() *Registry {
	r := &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Sketch),
		miByPhase: make(map[string]*Counter),
	}
	for c := DropCause(0); c < numCauses; c++ {
		r.dropsByCause[c] = r.Counter("drops." + c.String())
	}
	for k := range layouts {
		if name := layouts[k].counter; name != "" {
			r.byKind[k] = r.Counter(name)
		}
	}
	r.retxBytes = r.Counter("retransmit_bytes")
	r.queueDepth = r.Histogram("queue_depth_bytes")
	r.utility = r.Histogram("utility")
	r.rtt = r.Histogram("rtt_seconds")
	r.series = newSeriesStore(stats.DefaultBucket, r.Counter("series.dropped"))
	return r
}

// SetSeriesWindow overrides the windowed-series width (stats.DefaultBucket
// unless set; w <= 0 restores it). Call it before the first event: it
// resets the series store, discarding anything folded so far (trace
// replayers use it to re-bucket at a different resolution).
func (r *Registry) SetSeriesWindow(w sim.Time) {
	if w <= 0 {
		w = stats.DefaultBucket
	}
	r.series = newSeriesStore(w, r.Counter("series.dropped"))
}

// Counter returns (creating if needed) the named monotonic counter.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the named last-value gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating if needed) the named histogram, a Sketch.
func (r *Registry) Histogram(name string) *Sketch {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Sketch{}
	r.hists[name] = h
	return h
}

// Record folds one probe event into the builtin metrics. The bus calls it
// for every event when a registry is attached; trace analyzers call it when
// replaying a JSONL trace, which guarantees replayed aggregates match the
// live run's snapshot exactly.
func (r *Registry) Record(e Event) { r.record(&e) }

// record is Record without the copy; the bus passes its own event through.
func (r *Registry) record(e *Event) {
	if e.Kind >= numKinds {
		return
	}
	if c := r.byKind[e.Kind]; c != nil {
		c.Inc()
	}
	switch e.Kind {
	case KindDrop:
		if e.Cause < numCauses {
			r.dropsByCause[e.Cause].Inc()
		}
	case KindRetransmit:
		r.retxBytes.Add(float64(e.Bytes))
	case KindQueueDepth:
		r.queueDepth.Observe(float64(e.Bytes))
		r.series.observe(seriesID{seriesQueue, e.Link, -1}, e.At, float64(e.Bytes))
	case KindMIDecision:
		c, ok := r.miByPhase[e.State]
		if !ok {
			c = r.Counter("mi." + e.State)
			r.miByPhase[e.State] = c
		}
		c.Inc()
	case KindUtility:
		r.utility.Observe(e.Value)
	case KindRateChange:
		r.series.observe(seriesID{seriesRate, e.Flow, e.Subflow}, e.At, e.Value)
	case KindRTTSample:
		r.rtt.Observe(e.Value)
		r.series.observe(seriesID{seriesRTT, e.Flow, e.Subflow}, e.At, e.Value)
	case KindSessionOpen:
		r.ensureSessionMetrics()
		r.sessAccepted.Inc()
		r.setActiveConns(e.Aux)
	case KindSessionClose:
		r.ensureSessionMetrics()
		if e.State == "done" {
			r.sessCompleted.Inc()
			r.sessFCT.Observe(e.Value)
		} else {
			r.sessAborted.Inc()
		}
		r.setActiveConns(e.Aux)
	case KindSessionReject:
		r.ensureSessionMetrics()
		r.sessRejected.Inc()
	case KindSessionRetry:
		r.ensureSessionMetrics()
		r.sessRetried.Inc()
	}
}

func (r *Registry) ensureSessionMetrics() {
	if r.sessAccepted != nil {
		return
	}
	r.sessAccepted = r.Counter("sessions.accepted")
	r.sessRejected = r.Counter("sessions.rejected")
	r.sessRetried = r.Counter("sessions.retried")
	r.sessCompleted = r.Counter("sessions.completed")
	r.sessAborted = r.Counter("sessions.aborted")
	r.sessActive = r.Gauge("conns.active")
	r.sessActivePeak = r.Gauge("conns.active_peak")
	r.sessFCT = r.Histogram("session_fct_seconds")
}

// setActiveConns tracks both the live active-connection gauge and its
// high-water mark (the last value reflects end-of-run state).
func (r *Registry) setActiveConns(active float64) {
	r.sessActive.Set(active)
	if active > r.sessActivePeak.Value() {
		r.sessActivePeak.Set(active)
	}
}

// Counter is a monotonic sum.
type Counter struct{ v float64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add accumulates v.
func (c *Counter) Add(v float64) { c.v += v }

// Value returns the accumulated sum.
func (c *Counter) Value() float64 { return c.v }

// Gauge is a last-written value.
type Gauge struct{ v float64 }

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the last-written value.
func (g *Gauge) Value() float64 { return g.v }

// HistogramStats is a histogram's snapshot form. Quantiles are nearest-rank
// (stats.NearestRank): exact below the sketch spill threshold, within
// sketchAlpha relative error above it.
type HistogramStats struct {
	Count               int
	Min, Max, Mean      float64
	P50, P90, P99, P999 float64
}

// Snapshot is a registry frozen at the end of a run, attached to
// exp.Result. Maps are keyed by metric name; iterate SortedCounterNames and
// friends for deterministic output. Series holds the windowed rate/RTT/queue
// time series, keyed "rate_bps flow/sfN", "rtt_s flow/sfN" or "queue_bytes
// link".
type Snapshot struct {
	Counters   map[string]float64
	Gauges     map[string]float64
	Histograms map[string]HistogramStats
	Series     map[string]*stats.Series
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]float64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramStats, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Stats()
	}
	s.Series = r.series.snapshot()
	return s
}

// SortedCounterNames returns the counter names in lexical order.
func (s *Snapshot) SortedCounterNames() []string { return sortedKeys(s.Counters) }

// SortedGaugeNames returns the gauge names in lexical order.
func (s *Snapshot) SortedGaugeNames() []string { return sortedKeys(s.Gauges) }

// SortedHistogramNames returns the histogram names in lexical order.
func (s *Snapshot) SortedHistogramNames() []string {
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sortedKeys(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
