package exp

import (
	"fmt"
	"math/rand"
	"strconv"

	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
	"mpcc/internal/workload"
)

// ServerSpec declares one accept point of a churn workload: where its
// sessions run and what resources it will admit.
type ServerSpec struct {
	Name  string
	Paths [][]string // subflow paths (link names) for sessions on this server
	// MaxConns and BudgetBytes are the server's admission limits
	// (transport.NewServer; ≤ 0 disables a limit).
	MaxConns    int
	BudgetBytes int64
	// PerConnRcvBuf is each admitted connection's receive buffer, charged
	// against BudgetBytes and applied via transport.WithRcvBuf.
	PerConnRcvBuf int64
}

// ChurnSpec declares an open-loop session workload over a run: sessions
// arrive by a stochastic process, transfer a sampled object through a
// freshly opened connection, and close. Being open-loop, arrivals do not
// slow down when the network saturates — overload must be absorbed by
// admission control and client retry, which is the point of the churn
// experiments. A spec forces the legacy single-engine path (sessions come
// and go, so the static flow partition sharding needs does not exist); all
// randomness comes from generators seeded off Spec.Seed, never from the
// engine RNG, so traces stay byte-identical for any worker count.
type ChurnSpec struct {
	Servers []ServerSpec

	// RatePerSec selects a Poisson arrival process; a non-empty States
	// selects MMPP instead (RatePerSec is then ignored).
	RatePerSec float64
	States     []workload.MMPPState

	// Sizes samples per-session object bytes.
	Sizes workload.BoundedPareto

	Proto Protocol

	// Rejected clients retry with capped exponential backoff; a session is
	// abandoned after MaxRetries rejected attempts (0 = give up immediately).
	MaxRetries int
	RetryBase  sim.Time
	RetryCap   sim.Time

	// Per-session connection watchdogs (0 disables).
	HandshakeTimeout sim.Time
	IdleTimeout      sim.Time

	// DrainCheckAfter, when positive, audits a session's connection this
	// long after it closes (teardown reclaims everything but the packets
	// still in the network, which need a drain window before every pooled
	// buffer is home): one that has not gone back to the engine arena and
	// still holds pooled records or segments counts in ChurnStats.Leaks.
	DrainCheckAfter sim.Time
}

// ServerChurnStats is one server's admission ledger after a churn run.
type ServerChurnStats struct {
	Name        string
	Accepted    uint64
	Rejected    uint64
	PeakActive  int
	PeakBytes   int64
	BudgetBytes int64
	MaxConns    int
}

// ChurnStats summarizes a churn workload after the run. The session ledger
// balances: Accepted == Completed + Aborted + Active, and
// Arrivals == Accepted + Abandoned + (retries still pending at the horizon;
// rejected attempts that found a later slot count under Accepted).
type ChurnStats struct {
	Arrivals  int // sessions whose first attempt happened
	Accepted  int // sessions admitted (after any retries)
	Rejected  int // admission attempts shed (counts every rejected attempt)
	Retried   int // retry attempts scheduled after a rejection
	Abandoned int // sessions that exhausted MaxRetries (or the horizon)
	Completed int // sessions that delivered their object and closed clean
	Aborted   int // sessions closed by abort/idle/handshake paths
	Active    int // sessions still open when the run ended

	LeakChecks int // post-close pool audits performed
	Leaks      int // audits that found pooled buffers still out

	PeakActive     int   // high-water concurrent sessions across all servers
	CompletedBytes int64 // object bytes of completed sessions

	// FCT is the completed-session flow-completion-time distribution in
	// seconds (admission to clean close).
	FCT obs.HistogramStats

	Servers []ServerChurnStats
}

// churnDriver runs one ChurnSpec on one engine. All its state is touched
// only from engine callbacks, so it needs no locking.
type churnDriver struct {
	w       *world
	eng     *sim.Engine // w's one engine: churn runs are never sharded
	spec    *ChurnSpec
	proto   Protocol
	horizon sim.Time

	rng     *rand.Rand // server choice + backoff jitter
	arr     workload.Arrivals
	backoff workload.Backoff
	servers []churnServer
	// Free lists, as per-engine as the transport arena (a churn run has one
	// engine and one driver): session records, MPCC groups (reset) and
	// drain-audit records between uses.
	sessions sim.Pool[churnSession]
	groups   sim.Pool[ccmpcc.Group]
	audits   sim.Pool[churnAudit]
	nameBuf  []byte // scratch for rendering session names

	nextID int
	active int
	fct    *obs.Sketch
	stats  ChurnStats
}

// churnServer is one accept point with everything a session needs resolved
// once: its spec, the path per subflow every session sends on (a Path holds
// no per-connection state), and the connection options every session
// shares.
type churnServer struct {
	*transport.Server
	spec     *ServerSpec
	paths    []*netem.Path
	connOpts []transport.ConnOption
}

// churnSession is one session's record from arrival to close (or to giving
// up). It is the argument of the driver's pooled retry timer and goes back
// to churnDriver.sessions as soon as the session closes or gives up, together
// with the two callbacks bound to it and its File (a closed connection never
// reads its app again), so an arrival allocates nothing here in steady state
// but its name. While admitted it holds a connection and an MPCC group; at
// close both go back (the connection to the engine arena once its packets
// drain, the group to churnDriver.groups), so a session waiting to retry
// holds neither.
type churnSession struct {
	d       *churnDriver
	name    string
	sv      *churnServer
	size    int64
	attempt int // rejected attempts so far
	start   sim.Time
	conn    *transport.Connection
	grp     *ccmpcc.Group  // the connection's rate-publication board
	file    transport.File // the session's object, reset per admission

	onComplete func(sim.Time)
	onClose    func(transport.CloseReason, sim.Time)
}

// churnAudit is the drain audit of one closed session: its connection,
// recycled at the close, and that connection's generation then. A
// connection whose generation moved went home drained (and may carry another
// session by now), so only one still out is read. The record is the audit
// timer's argument.
type churnAudit struct {
	d    *churnDriver
	conn *transport.Connection
	gen  uint64
}

// startChurn validates the spec, builds the servers and generators, and
// schedules the first arrival. Call before w.run.
func startChurn(w *world, s *Spec, net *topo.Net) *churnDriver {
	cs := s.Churn
	if len(cs.Servers) == 0 {
		panic("exp: ChurnSpec needs at least one server")
	}
	if len(cs.States) == 0 && cs.RatePerSec <= 0 {
		panic("exp: ChurnSpec needs RatePerSec > 0 or MMPP States")
	}
	d := &churnDriver{
		w: w, eng: w.engines[0], spec: cs, proto: cs.Proto,
		horizon: s.Duration,
		rng:     rand.New(rand.NewSource(s.Seed ^ 0x636875726e)), // "churn"
		backoff: workload.Backoff{Base: cs.RetryBase, Cap: cs.RetryCap},
		fct:     &obs.Sketch{},

		sessions: sim.Pool[churnSession]{Slab: 16},
		groups:   sim.Pool[ccmpcc.Group]{Slab: 16},
		audits:   sim.Pool[churnAudit]{Slab: 64},
	}
	if len(cs.States) > 0 {
		d.arr = workload.NewMMPP(s.Seed+1, cs.States)
	} else {
		d.arr = workload.NewPoisson(s.Seed+1, cs.RatePerSec, nil)
	}
	for k := range cs.Servers {
		sv := &cs.Servers[k]
		// One spare slot: Attach appends its probe option in place instead
		// of copying the slice for every session.
		opts := make([]transport.ConnOption, 0, 4)
		opts = append(opts, transport.WithRcvBuf(sv.PerConnRcvBuf))
		if cs.HandshakeTimeout > 0 {
			opts = append(opts, transport.WithHandshakeTimeout(cs.HandshakeTimeout))
		}
		if cs.IdleTimeout > 0 {
			opts = append(opts, transport.WithIdleTimeout(cs.IdleTimeout))
		}
		d.servers = append(d.servers, churnServer{
			Server:   transport.NewServer(sv.Name, sv.MaxConns, sv.BudgetBytes),
			spec:     sv,
			paths:    net.Paths(sv.Paths),
			connOpts: opts,
		})
	}
	d.chain(0)
	return d
}

// chain schedules the next arrival after now, stopping at the horizon.
func (d *churnDriver) chain(now sim.Time) {
	next := d.arr.Next(now)
	if next >= d.horizon {
		return
	}
	d.eng.Schedule(next, churnArriveEvent, d)
}

func churnArriveEvent(a any) { a.(*churnDriver).arrive() }

func (d *churnDriver) arrive() {
	now := d.eng.Now()
	d.stats.Arrivals++
	s := d.newSession()
	d.nameBuf = strconv.AppendInt(append(d.nameBuf[:0], "sess"...), int64(d.nextID), 10)
	s.name = string(d.nameBuf)
	d.nextID++
	s.sv = &d.servers[d.rng.Intn(len(d.servers))]
	s.size = int64(d.spec.Sizes.Sample(d.rng))
	s.attempt = 0
	d.attempt(s)
	d.chain(now)
}

func (d *churnDriver) newSession() *churnSession {
	s := d.sessions.Get()
	if s.d == nil { // first use: bind the callbacks once
		s.d = d
		s.onComplete = s.complete
		s.onClose = s.closed
	}
	return s
}

// recycle returns a finished session's record for the next arrival; a
// closed session's connection goes to the engine arena (once its packets
// drain) and its group, reset, to the next admission: the transport drives
// no controller after shutdown.
func (d *churnDriver) recycle(s *churnSession) {
	if s.conn != nil {
		s.conn.Recycle()
		s.grp.Reset()
		d.groups.Put(s.grp)
	}
	s.name, s.sv, s.conn, s.grp = "", nil, nil, nil
	d.sessions.Put(s)
}

func (d *churnDriver) abandon(s *churnSession) {
	d.stats.Abandoned++
	d.recycle(s)
}

func churnRetryEvent(a any) {
	s := a.(*churnSession)
	s.d.attempt(s)
}

// attempt is one admission try (the arrival itself has s.attempt == 0).
func (d *churnDriver) attempt(s *churnSession) {
	now := d.eng.Now()
	sv := s.sv
	if res := sv.Admit(sv.spec.PerConnRcvBuf); res != transport.AdmitOK {
		d.stats.Rejected++
		d.w.bus.SessionReject(now, s.name, sv.Name, res.String(), s.attempt+1)
		if s.attempt >= d.spec.MaxRetries {
			d.abandon(s)
			return
		}
		delay := d.backoff.Delay(d.rng, s.attempt)
		if now+delay >= d.horizon {
			// The retry would never fire; count the session as given up so
			// the ledger still balances at the horizon.
			d.abandon(s)
			return
		}
		d.stats.Retried++
		s.attempt++
		d.w.bus.SessionRetry(now, s.name, delay, s.attempt)
		d.eng.Schedule(now+delay, churnRetryEvent, s)
		return
	}
	d.stats.Accepted++
	d.active++
	if d.active > d.stats.PeakActive {
		d.stats.PeakActive = d.active
	}
	d.w.bus.SessionOpen(now, s.name, sv.Name, s.size, d.active)

	s.grp = d.groups.Get()
	s.conn = d.w.attach(s.name, d.proto, sv.paths, AttachOptions{ConnOptions: sv.connOpts}, s.grp)
	s.start = now
	s.file.Reset(s.size)
	s.conn.SetApp(&s.file, s.onComplete)
	s.conn.SetOnClose(s.onClose)
	s.conn.Start(now)
}

func (s *churnSession) complete(sim.Time) { s.conn.Close() }

func (s *churnSession) closed(r transport.CloseReason, at sim.Time) {
	d, sv := s.d, s.sv
	d.active--
	sv.Release(sv.spec.PerConnRcvBuf)
	fct := sim.Time(-1)
	if r == transport.CloseDone {
		d.stats.Completed++
		d.stats.CompletedBytes += s.size
		fct = at - s.start
		d.fct.Observe(fct.Seconds())
	} else {
		d.stats.Aborted++
	}
	d.w.bus.SessionClose(at, s.name, sv.Name, r.String(), fct, s.conn.AckedBytes(), d.active)
	if check := at + d.spec.DrainCheckAfter; d.spec.DrainCheckAfter > 0 && check < d.horizon {
		d.stats.LeakChecks++
		d.eng.Schedule(check, churnDrainEvent, d.audit(s.conn))
	}
	d.recycle(s)
}

// audit returns a drain-audit record of conn at its current generation.
func (d *churnDriver) audit(conn *transport.Connection) *churnAudit {
	a := d.audits.Get()
	*a = churnAudit{d: d, conn: conn, gen: conn.Generation()}
	return a
}

// churnDrainEvent audits a closed session's connection after its drain
// window: a leak is a connection that has not gone home and still holds
// pooled records or segments. One that went home was drained when it did.
func churnDrainEvent(v any) {
	a := v.(*churnAudit)
	d := a.d
	if a.conn.Generation() == a.gen {
		if recs, segs := a.conn.PoolInUse(); recs != 0 || segs != 0 {
			d.stats.Leaks++
		}
	}
	*a = churnAudit{}
	d.audits.Put(a)
}

// snapshot finalizes the run's ChurnStats.
func (d *churnDriver) snapshot() *ChurnStats {
	st := d.stats
	st.Active = d.active
	st.FCT = d.fct.Stats()
	for i := range d.servers {
		sv := &d.servers[i]
		st.Servers = append(st.Servers, ServerChurnStats{
			Name:        sv.Name,
			Accepted:    sv.Accepted(),
			Rejected:    sv.Rejected(),
			PeakActive:  sv.PeakActive(),
			PeakBytes:   sv.PeakBytes(),
			BudgetBytes: d.spec.Servers[i].BudgetBytes,
			MaxConns:    d.spec.Servers[i].MaxConns,
		})
	}
	return &st
}

// ChurnLoads is the offered-load sweep (fraction of farm ingress capacity)
// of the churn experiment: through the knee and past it to 2× overload.
var ChurnLoads = []float64{0.3, 0.6, 0.85, 1.0, 1.3, 2.0}

// churnServers is the per-server sizing of the canonical churn experiment:
// a connection cap plus a shared receive-buffer budget, both deliberately
// small enough that overload sheds at admission rather than in the queues.
const (
	churnNumServers    = 4
	churnMaxConns      = 64
	churnBudgetBytes   = 16 << 20
	churnPerConnRcvBuf = 256 << 10
)

// ChurnSpecAt builds the canonical churn run at offered load rho (fraction
// of the server farm's 200 Mbps ingress capacity).
func ChurnSpecAt(cfg Config, rho float64) Spec {
	sizes := workload.BoundedPareto{Alpha: 1.3, Min: 30e3, Max: 30e6}
	capBps := 2 * topo.DefaultRate // two core links feed the farm
	lambda := rho * capBps / 8 / sizes.Mean()
	servers := make([]ServerSpec, churnNumServers)
	for k := range servers {
		servers[k] = ServerSpec{
			Name:          topo.ServerName(k),
			Paths:         topo.ServerFarmPaths(k),
			MaxConns:      churnMaxConns,
			BudgetBytes:   churnBudgetBytes,
			PerConnRcvBuf: churnPerConnRcvBuf,
		}
	}
	return Spec{
		Seed: cfg.Seed, Duration: cfg.Duration, Warmup: cfg.Warmup,
		Topo: topo.ServerFarm(churnNumServers),
		Churn: &ChurnSpec{
			Servers:          servers,
			RatePerSec:       lambda,
			Sizes:            sizes,
			Proto:            MPCCLoss,
			MaxRetries:       5,
			RetryBase:        50 * sim.Millisecond,
			RetryCap:         2 * sim.Second,
			HandshakeTimeout: 3 * sim.Second,
			IdleTimeout:      5 * sim.Second,
			DrainCheckAfter:  2 * sim.Second,
		},
	}
}

// Churn is the overload-survival experiment: an open-loop session workload
// swept through and past the farm's saturation point. The table shows the
// knee — goodput rising with offered load until capacity, then holding —
// and where the excess goes once admission control starts shedding:
// rejects, retries, abandonments, bounded FCT percentiles. Graceful
// degradation means goodput at 2× overload stays within a bound of the
// knee instead of collapsing.
func Churn(cfg Config) []*Table {
	t := &Table{
		Title: "Churn — open-loop overload sweep on server-farm-4 (goodput and shedding vs offered load)",
		Header: []string{"rho", "offered_Mbps", "goodput_Mbps", "arrivals", "accepted",
			"rejected", "retried", "abandoned", "completed", "aborted", "active_end",
			"peak_active", "fct_p50_s", "fct_p99_s", "fct_p999_s"},
	}
	capBps := 2 * topo.DefaultRate
	specs := make([]Spec, len(ChurnLoads))
	for i, rho := range ChurnLoads {
		specs[i] = ChurnSpecAt(cfg, rho)
	}
	stats := runSpecs(specs, func(r *Result) *ChurnStats { return r.Churn })
	dur := cfg.Duration.Seconds()
	var knee, at2x float64
	for i, rho := range ChurnLoads {
		st := stats[i]
		goodput := 8 * float64(st.CompletedBytes) / dur
		if goodput > knee {
			knee = goodput
		}
		if rho == 2.0 {
			at2x = goodput
		}
		t.AddRow(fmt.Sprintf("%.2f", rho), mbps(rho*capBps), mbps(goodput),
			fmt.Sprint(st.Arrivals), fmt.Sprint(st.Accepted), fmt.Sprint(st.Rejected),
			fmt.Sprint(st.Retried), fmt.Sprint(st.Abandoned), fmt.Sprint(st.Completed),
			fmt.Sprint(st.Aborted), fmt.Sprint(st.Active), fmt.Sprint(st.PeakActive),
			fmt.Sprintf("%.3f", st.FCT.P50), fmt.Sprintf("%.3f", st.FCT.P99),
			fmt.Sprintf("%.3f", st.FCT.P999))
	}
	if knee > 0 && at2x > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"2x-overload goodput is %.0f%% of the knee (graceful degradation wants >= 80%%)",
			100*at2x/knee))
	}
	return []*Table{t}
}
