package transport

import (
	"math"

	"mpcc/internal/cc"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
)

// Defaults mirroring the paper's setup (§7.1): 1500-byte packets, effectively
// unbounded send buffering (300 MB OS buffers), Linux's 200 ms minimum RTO.
const (
	DefaultMSS        = 1500
	DefaultSndBufPkts = 4096
	DefaultMinRTO     = 200 * sim.Millisecond

	// DefaultRcvBufBytes is the default receive (reassembly) buffer: the
	// 300 MB the paper's experiments configure to take flow control out of
	// the picture (§7.1). It is deliberately far above any send buffer the
	// repo configures, so the receive-window gate never binds unless a
	// caller opts into a smaller buffer via WithRcvBuf — servers admitting
	// many churning connections must, and charge it against their shared
	// byte budget (see Server).
	DefaultRcvBufBytes = 300 << 20
)

// Connection is a multipath transport connection: a set of subflows, a
// scheduler apportioning application data among them, and metric collectors.
type Connection struct {
	Name string

	eng        *sim.Engine
	subflows   []*Subflow
	subflowBuf [2]*Subflow // inline storage for the common 1–2 subflow case
	sched      Scheduler   // WithScheduler's; else picked by Start
	app        App
	minRTO     sim.Time
	rcvBuf     int64    // receive-buffer bytes (default DefaultRcvBufBytes; 0 = unlimited)
	rcv        rangeSet // receiver-side reassembly state

	failThreshold int      // consecutive RTO episodes before a subflow fails (≤0 disables)
	orphans       segQueue // segments stranded while every subflow was dead

	// arena is the engine's object arena (see pool.go for the ownership and
	// reference-counting rules), looked up once at NewConnection.
	arena *arena

	probes *obs.Bus // nil when observability is disabled

	startAt sim.Time
	nextOff int64
	started bool
	pumping bool

	// lifecycle (see lifecycle.go)
	closed           bool
	closeReason      CloseReason
	startPending     bool   // Start's event has not run yet
	recycled         bool   // Recycle called
	reclaimed        bool   // back in the arena
	gen              uint64 // times reclaimed (Generation); survives reuse
	closedAt         sim.Time
	onClose          func(reason CloseReason, at sim.Time)
	idleTimeout      sim.Time
	handshakeTimeout sim.Time
	watchdog         sim.TimerRef

	// pool gauges: arena objects this connection currently holds (the
	// churn leak check asserts recs and segs return to zero after teardown
	// drains); with the revival probes in flight and startPending they are
	// everything a recycled connection waits for (reclaim)
	recLive   int
	segLive   int
	miLive    int
	probeLive int

	// forward-progress tracking: the longest observed interval between
	// consecutive first-delivery events (hostile-path stall oracle).
	lastDeliveredAt sim.Time
	maxDeliveryGap  sim.Time

	// metrics (first-delivery goodput is bucketed per subflow: Goodput)
	ackedBytes int64
	fileSize   int64
	fct        sim.Time // -1 until the file completes
	onComplete func(fct sim.Time)

	latSum, latSumSq float64
	latCount         int64
	latSeries        stats.Series // RTT samples (seconds), bucketed
}

// ConnOption configures a Connection.
type ConnOption func(*Connection)

// WithMinRTO overrides the minimum retransmission timeout (the data-center
// experiments lower it, as DC stacks do).
func WithMinRTO(d sim.Time) ConnOption { return func(c *Connection) { c.minRTO = d } }

// WithRcvBuf bounds the receiver's reassembly buffer: a sender may not have
// stream data beyond (in-order delivered + bytes) outstanding. The default
// is DefaultRcvBufBytes — the paper's 300 MB flow-control-disabling setup —
// and 0 means unlimited; a realistically small buffer reproduces the §7.2.7
// head-of-line effect where losses on one subflow stall the whole
// connection, and is mandatory on server accept paths where the aggregate
// is charged against a shared byte budget.
func WithRcvBuf(bytes int64) ConnOption {
	return func(c *Connection) { c.rcvBuf = bytes }
}

// WithFailThreshold sets how many consecutive RTO episodes (timeouts with no
// intervening ACK) declare a subflow dead. n ≤ 0 disables the failure
// detector entirely — the subflow keeps retransmitting into the void with
// exponentially backed-off timeouts, as a stack without path management
// would. The default is DefaultFailThreshold.
func WithFailThreshold(n int) ConnOption {
	return func(c *Connection) { c.failThreshold = n }
}

// WithProbes attaches an observability bus: the connection emits scheduler
// picks, retransmissions, RTO backoff episodes, pacing-rate changes, and
// subflow up/down transitions. nil (the default) disables all of it.
func WithProbes(b *obs.Bus) ConnOption { return func(c *Connection) { c.probes = b } }

// WithScheduler sets the multipath scheduler. Without it, Start picks the
// one §7.1 attaches to the connection's subflows: DefaultScheduler (the
// kernel's) when every subflow is window-based, the paper's 10%-threshold
// RateScheduler otherwise.
func WithScheduler(s Scheduler) ConnOption { return func(c *Connection) { c.sched = s } }

// paperScheduler is the rate-based subflows' default. A RateScheduler is
// stateless, so every connection shares this one.
var paperScheduler Scheduler = NewRateScheduler(0.10)

// NewConnection creates an idle connection; add subflows, set an app, then
// Start it. It is built on a connection an earlier owner recycled when the
// engine's arena holds one (see Recycle), with every field reset.
func NewConnection(eng *sim.Engine, name string, opts ...ConnOption) *Connection {
	a := arenaOf(eng)
	c := a.conns.Get()
	// What a recycled connection keeps: its Subflows (in the spare capacity
	// of subflows, which may be subflowBuf), its latency series' buckets and
	// its generation.
	subflows, buf, lat, gen := c.subflows[:0], c.subflowBuf, c.latSeries, c.gen
	*c = Connection{
		Name:          name,
		eng:           eng,
		arena:         a,
		orphans:       segQueue{arena: a},
		minRTO:        DefaultMinRTO,
		rcvBuf:        DefaultRcvBufBytes,
		fct:           -1,
		failThreshold: DefaultFailThreshold,
		subflowBuf:    buf,
		latSeries:     lat,
		gen:           gen,
	}
	for _, o := range opts {
		o(c)
	}
	c.rcv.intervals = a.islands.get()
	c.latSeries.Reset(0, stats.DefaultBucket)
	c.subflows = subflows
	if subflows == nil {
		c.subflows = c.subflowBuf[:0]
	}
	return c
}

// newSubflow appends a subflow on path, rebuilt on the one a recycled
// connection kept in that slot, if any.
func (c *Connection) newSubflow(path *netem.Path) *Subflow {
	var s *Subflow
	if n := len(c.subflows); n < cap(c.subflows) {
		s = c.subflows[:n+1][n]
	}
	if s == nil {
		s = new(Subflow)
	}
	goodput := s.goodput
	*s = Subflow{
		conn:    c,
		id:      len(c.subflows),
		path:    path,
		goodput: goodput,

		pending:     segQueue{arena: c.arena},
		retx:        segQueue{arena: c.arena},
		outstanding: c.arena.outstanding.get(),
	}
	s.goodput.Reset(0, stats.DefaultBucket)
	s.rxSink, s.ackSink = (*rxSink)(s), (*ackSink)(s)
	c.subflows = append(c.subflows, s)
	return s
}

// AddRateSubflow attaches a rate-based (paced) subflow on path.
func (c *Connection) AddRateSubflow(path *netem.Path, rc cc.RateController) *Subflow {
	if c.started {
		panic("transport: AddRateSubflow after Start")
	}
	s := c.newSubflow(path)
	s.rc = rc
	s.openMIs = c.arena.openMIs.get()
	return s
}

// AddWindowSubflow attaches a window-based (ACK-clocked) subflow on path.
func (c *Connection) AddWindowSubflow(path *netem.Path, wc cc.WindowController) *Subflow {
	if c.started {
		panic("transport: AddWindowSubflow after Start")
	}
	s := c.newSubflow(path)
	s.wc = wc
	return s
}

// Subflows returns the connection's subflows.
func (c *Connection) Subflows() []*Subflow { return c.subflows }

// SetApp installs the data source. For File apps the completion time is
// recorded and cb (optional) invoked.
func (c *Connection) SetApp(app App, cb func(fct sim.Time)) {
	c.app = app
	c.onComplete = cb
	if f, ok := app.(*File); ok {
		c.fileSize = f.remaining
	}
}

// Start schedules the connection to begin sending at the given virtual time.
func (c *Connection) Start(at sim.Time) {
	if len(c.subflows) == 0 {
		panic("transport: Start with no subflows")
	}
	if c.app == nil {
		c.app = Bulk{}
	}
	if c.sched == nil {
		c.sched = DefaultScheduler{}
		for _, s := range c.subflows {
			if s.rc != nil {
				c.sched = paperScheduler
				break
			}
		}
	}
	c.startAt = at
	c.startPending = true
	c.eng.Schedule(at, startEvent, c)
}

func startEvent(a any) {
	c := a.(*Connection)
	c.startPending = false
	if c.closed {
		c.reclaim()
		return // shut down before it ever started
	}
	for _, s := range c.subflows {
		s.init()
	}
	c.started = true
	c.armWatchdog()
	c.pump()
	for _, s := range c.subflows {
		s.begin()
	}
}

// pump assigns new application data to subflows according to the scheduler,
// up to the send-buffer cap, kicking each recipient immediately so that
// ACK-clocked subflows transmit as they are assigned (the kernel scheduler
// runs per transmission opportunity). It is re-entrancy guarded: nested
// calls from inside a kick are no-ops.
func (c *Connection) pump() {
	if !c.started || c.closed || c.app == nil || c.pumping {
		return
	}
	c.pumping = true
	defer func() { c.pumping = false }()
	for c.totalUnacked() < DefaultSndBufPkts && c.app.HasData() {
		s := c.sched.Pick(c)
		if s == nil {
			return
		}
		n := c.app.Take(DefaultMSS)
		if n == 0 {
			return
		}
		seg := c.acquireSeg(c.nextOff, n)
		c.nextOff += int64(n)
		s.enqueue(seg)
		c.probes.SchedPick(c.eng.Now(), c.Name, s.id, n)
		// Kick immediately: kernel schedulers assign at transmission
		// opportunity, so an ACK-clocked subflow transmits the segment
		// right away and the next Pick sees updated in-flight state.
		// (Nested pumps from inside the kick are no-ops via c.pumping.)
		s.kick()
	}
}

// totalUnacked counts data the send buffer is on the hook for: assigned but
// unsent segments plus unresolved packets in flight. Bounding this (rather
// than pending alone) mirrors a real socket's send buffer and guarantees the
// pump terminates even under a runaway congestion window.
func (c *Connection) totalUnacked() int {
	t := c.orphans.len()
	for _, s := range c.subflows {
		t += s.pending.len() + s.inflightPkts
	}
	return t
}

// onDelivered is called exactly once per segment, at first acknowledgement.
func (c *Connection) onDelivered(seg *segment, now sim.Time) {
	prev := c.lastDeliveredAt
	if prev == 0 {
		prev = c.startAt
	}
	if gap := now - prev; gap > c.maxDeliveryGap {
		c.maxDeliveryGap = gap
	}
	c.lastDeliveredAt = now
	c.ackedBytes += int64(seg.size)
	if c.fileSize > 0 && c.fct < 0 && c.ackedBytes >= c.fileSize {
		c.fct = now - c.startAt
		if c.onComplete != nil {
			c.onComplete(c.fct)
		}
	}
}

func (c *Connection) onRTTSample(now sim.Time, rtt sim.Time) {
	sec := rtt.Seconds()
	c.latSum += sec
	c.latSumSq += sec * sec
	c.latCount++
	c.latSeries.Add(now, sec)
}

// rwndLimit returns the highest stream offset the receiver can accept.
func (c *Connection) rwndLimit() int64 {
	if c.rcvBuf <= 0 {
		return math.MaxInt64
	}
	return c.rcv.contiguous() + c.rcvBuf
}

// onArrival records a data packet reaching the receiver (reassembly state).
func (c *Connection) onArrival(off int64, size int) {
	c.rcv.add(off, size)
}

// InOrderBytes returns how much of the stream the receiver has delivered to
// the application in order.
func (c *Connection) InOrderBytes() int64 { return c.rcv.contiguous() }

// ReceivedBytes returns the distinct stream bytes that have reached the
// receiver (in-order prefix plus out-of-order buffered data). Every
// acknowledged byte arrived first, so AckedBytes ≤ ReceivedBytes ≤
// OfferedBytes at all times (checked by internal/simtest).
func (c *Connection) ReceivedBytes() int64 { return c.rcv.contiguous() + c.rcv.buffered() }

// OfferedBytes returns how much application stream data has been assigned to
// subflows so far (the high-water stream offset).
func (c *Connection) OfferedBytes() int64 { return c.nextOff }

// MaxDeliveryGap returns the longest interval between consecutive
// first-delivery events so far (the first event is measured from Start).
// internal/simtest's forward-progress oracle bounds it under reordering-only
// impairment: reordering alone must never stall the stream for multiples of
// the RTO.
func (c *Connection) MaxDeliveryGap() sim.Time { return c.maxDeliveryGap }

// LastDeliveredAt returns the time of the most recent first delivery (0 if
// nothing has been delivered yet).
func (c *Connection) LastDeliveredAt() sim.Time { return c.lastDeliveredAt }

// Goodput returns the connection's first-delivery byte series: the sum of
// its subflows' (each segment is delivered once, by one subflow), built anew
// on every call.
func (c *Connection) Goodput() *stats.Series {
	n := 0
	for _, s := range c.subflows {
		n = max(n, s.goodput.Len())
	}
	g := stats.SeriesOf(stats.DefaultBucket, make([]stats.Bucket, 0, n))
	for _, s := range c.subflows {
		g.Merge(&s.goodput)
	}
	return g
}

// AckedBytes returns total first-delivery bytes.
func (c *Connection) AckedBytes() int64 { return c.ackedBytes }

// FCT returns the flow completion time of a File transfer, or -1 if not
// (yet) complete.
func (c *Connection) FCT() sim.Time { return c.fct }

// MeanGoodputBps returns the average goodput in bits/s between from and end,
// mirroring the paper's habit of omitting a warmup prefix.
func (c *Connection) MeanGoodputBps(from, end sim.Time) float64 {
	return 8 * c.Goodput().MeanRateSince(from, end)
}

// MeanLatency returns the average RTT over all samples, in seconds, with its
// standard deviation.
func (c *Connection) MeanLatency() (mean, stddev float64) {
	if c.latCount == 0 {
		return 0, 0
	}
	n := float64(c.latCount)
	mean = c.latSum / n
	v := c.latSumSq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v)
}

// MeanLatencySince returns the average RTT in seconds over samples taken at
// or after from (so warmup transients can be omitted, as with goodput).
// Falls back to the all-time mean when no samples lie in the window.
func (c *Connection) MeanLatencySince(from sim.Time) float64 {
	// Sum and count accumulate as per-second rates, bucket by bucket: the
	// latency column of every table is pinned at that rounding.
	secs := stats.DefaultBucket.Seconds()
	var sum, count float64
	for i, n := 0, c.latSeries.Len(); i < n; i++ {
		if sim.Time(i)*stats.DefaultBucket >= from {
			b := c.latSeries.Bucket(i)
			sum += b.Sum / secs
			count += float64(b.Count) / secs
		}
	}
	if count == 0 {
		m, _ := c.MeanLatency()
		return m
	}
	return sum / count
}
