package main

// Every call into mpcc/internal/* lives in this file: the five workload
// builders, the translation of an exp.Result into the benchmark's own
// runStats, the stub controllers, and the unit operations the layer drivers
// time. The other files see only the neutral types declared here, so a change
// to an internal API needs a follow-up in this one file.

import (
	"io"
	"math/rand"
	"sort"

	"mpcc/internal/cc"
	"mpcc/internal/cc/bbr"
	"mpcc/internal/cc/coupled"
	"mpcc/internal/cc/cubic"
	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/cc/reno"
	"mpcc/internal/exp"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
	"mpcc/internal/workload"
)

// ---- neutral result types ----

// flowStats is one static flow's end-of-run byte ledger.
type flowStats struct {
	name                     string
	acked, received, offered int64
	goodputBps               float64 // post-warm-up mean
}

// churnStats is the session ledger of a churn run.
type churnStats struct {
	arrivals, accepted, rejected, retried, abandoned int
	completed, aborted, active, leaks                int
	completedBytes                                   int64
	fctP99                                           float64 // virtual seconds
}

// probeStats is what the counting sink saw during a traced run.
type probeStats struct {
	events    uint64 // probe events of every kind
	acks      uint64 // rtt-sample events: one per acknowledged packet
	mis       uint64 // mi-decision events: one per monitor interval
	segs      uint64 // sched-pick + retransmit events: segments handed to a path
	segBytes  int64
	closedAck int64 // bytes acknowledged by sessions that closed (churn)
}

// runStats is one exp.Run call, read through public counters only.
type runStats struct {
	virtS       float64
	events      uint64 // Result.Events
	pkts, drops uint64 // summed Link.Stats(): packets enqueued, packets dropped
	flows       []flowStats
	churn       *churnStats
	goodputFrac float64
	jain        float64
	probes      *probeStats // nil unless the run was counted
}

// ---- workloads ----

// sizes scales virtual durations and driver unit budgets; quick is the
// test-suite size.
type sizes struct {
	bulkS, baselineS, churnS, shardedS float64 // virtual seconds per leg
	warmFrac                           float64 // share of a leg excluded from goodput
	units                              int     // layer-driver unit budget
	warmUnits                          int
}

var (
	fullSize  = sizes{bulkS: 100, baselineS: 30, churnS: 20, shardedS: 40, warmFrac: 0.3, units: 1 << 20, warmUnits: 1 << 16}
	quickSize = sizes{bulkS: 2, baselineS: 2, churnS: 2, shardedS: 2, warmFrac: 0.25, units: 1 << 12, warmUnits: 1 << 8}
)

// leg is one exp.Run call of a workload iteration.
type leg struct {
	proto  string // exp protocol name; keys the cc unit costs of the cost model
	window bool   // ACK-clocked window protocol (else paced, per-MI)
	lossy  bool   // the leg's links drop at random
	jsonl  bool   // the workload itself wires registry + JSONL (traced_bulk)
	shards int    // shard workers of a space-parallel leg, else 0
	spec   func(seed int64) exp.Spec
}

// workloadLegs returns the legs of the named workload, or nil.
func workloadLegs(name string, sz sizes) []leg {
	dur := func(s float64) (sim.Time, sim.Time) {
		return sim.FromSeconds(s), sim.FromSeconds(s * sz.warmFrac)
	}
	bulk := func(seed int64) exp.Spec {
		d, w := dur(sz.bulkS)
		return exp.Spec{Seed: seed, Duration: d, Warmup: w, Topo: topo.Fig3c(), Proto: exp.MPCCLoss}
	}
	switch name {
	case "bulk_mpcc":
		return []leg{{proto: string(exp.MPCCLoss), spec: bulk}}
	case "traced_bulk":
		return []leg{{proto: string(exp.MPCCLoss), jsonl: true, spec: bulk}}
	case "baselines_lossy":
		var legs []leg
		for _, p := range []exp.Protocol{exp.LIA, exp.OLIA, exp.Balia, exp.WVegas, exp.Reno, exp.Cubic, exp.BBR} {
			legs = append(legs, leg{proto: string(p), window: !p.RateBased(), lossy: true, spec: func(seed int64) exp.Spec {
				d, w := dur(sz.baselineS)
				return exp.Spec{Seed: seed, Duration: d, Warmup: w, Topo: topo.Fig3c(), Proto: p,
					// Mid-points of the Fig. 5 buffer sweep and the Fig. 6 loss sweep.
					Tweak: func(net *topo.Net) {
						l := net.Link("link1")
						l.SetLoss(0.001)
						l.SetBuffer(60000)
					}}
			}})
		}
		return legs
	case "churn_overload":
		return []leg{{proto: string(exp.MPCCLoss), spec: func(seed int64) exp.Spec {
			d, w := dur(sz.churnS)
			return exp.ChurnSpecAt(exp.Config{Seed: seed, Duration: d, Warmup: w}, 1.3)
		}}}
	case "sharded_clusters":
		return []leg{{proto: string(exp.MPCCLoss), shards: 2, spec: func(seed int64) exp.Spec {
			d, w := dur(sz.shardedS)
			return exp.Spec{Seed: seed, Duration: d, Warmup: w, Topo: topo.Clusters(4), Proto: exp.MPCCLoss}
		}}}
	}
	return nil
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// countingSink tallies probe events by kind at the bus boundary; the arrays
// cover every value an obs.Kind can take.
type countingSink struct {
	n     [256]uint64
	bytes [256]int64
}

func (c *countingSink) Emit(e obs.Event) {
	c.n[e.Kind]++
	c.bytes[e.Kind] += e.Bytes
}

// runLeg executes one leg at seed. workers > 0 overrides a space-parallel
// leg's shard worker count (the sharded determinism check); count adds the
// counting sink and a registry to the run's probe bus (the traced run).
func runLeg(l leg, seed int64, workers int, count bool) (runStats, error) {
	s := l.spec(seed)
	s.Shards = -1 // one engine, whatever the package default says
	if l.shards > 0 {
		s.Shards = l.shards
		if workers > 0 {
			s.Shards = workers
		}
	}
	var (
		jw  *obs.JSONLWriter
		out countingWriter
		cs  *countingSink
	)
	if l.jsonl || count {
		bus := obs.NewBus()
		bus.SetRegistry(obs.NewRegistry())
		if l.jsonl {
			jw = obs.NewJSONLWriter(&out)
			bus.AddSink(jw)
		}
		if count {
			cs = &countingSink{}
			bus.AddSink(cs)
		}
		s.Probes = bus
	}
	res := exp.Run(s)
	if jw != nil {
		if err := jw.Flush(); err != nil {
			return runStats{}, err
		}
	}

	st := runStats{virtS: s.Duration.Seconds(), events: res.Events, goodputFrac: res.Utilization, jain: res.Jain}
	for _, name := range res.Net.LinkNames() {
		ls := res.Net.Link(name).Stats()
		st.pkts += ls.EnqueuedPackets
		st.drops += ls.DropsQueueFull + ls.DropsRandom + ls.DropsOutage + ls.DropsBurst + ls.DropsPolicer
	}
	for name, conn := range res.Conns {
		st.flows = append(st.flows, flowStats{
			name: name, acked: conn.AckedBytes(), received: conn.ReceivedBytes(), offered: conn.OfferedBytes(),
			goodputBps: res.Flows[name].GoodputBps,
		})
	}
	sort.Slice(st.flows, func(i, j int) bool { return st.flows[i].name < st.flows[j].name })
	if c := res.Churn; c != nil {
		st.churn = &churnStats{
			arrivals: c.Arrivals, accepted: c.Accepted, rejected: c.Rejected, retried: c.Retried,
			abandoned: c.Abandoned, completed: c.Completed, aborted: c.Aborted, active: c.Active,
			leaks: c.Leaks, completedBytes: c.CompletedBytes, fctP99: c.FCT.P99,
		}
		// The farm's ingress is its two core links, whatever sits behind them.
		st.goodputFrac = 8 * float64(c.CompletedBytes) / (2 * topo.DefaultRate * st.virtS)
	}
	if cs != nil {
		p := &probeStats{
			acks:      cs.n[obs.KindRTTSample],
			mis:       cs.n[obs.KindMIDecision],
			segs:      cs.n[obs.KindSchedPick] + cs.n[obs.KindRetransmit],
			segBytes:  cs.bytes[obs.KindSchedPick] + cs.bytes[obs.KindRetransmit],
			closedAck: cs.bytes[obs.KindSessionClose],
		}
		for _, n := range cs.n {
			p.events += n
		}
		st.probes = p
	}
	return st, nil
}

// ---- stub controllers ----

// fixedRate is a rate controller that never changes its mind, so a transport
// driver measures the transport and not a controller.
type fixedRate struct{ bps float64 }

func (f *fixedRate) InitialRate() float64                { return f.bps }
func (f *fixedRate) NextRate(now, srtt sim.Time) float64 { return f.bps }
func (f *fixedRate) OnMIComplete(cc.MIStats)             {}

// fixedWindow is the window-based counterpart.
type fixedWindow struct{ pkts float64 }

func (f *fixedWindow) InitialCwnd() float64               { return f.pkts }
func (f *fixedWindow) Cwnd() float64                      { return f.pkts }
func (f *fixedWindow) OnAck(now, rtt sim.Time, n float64) {}
func (f *fixedWindow) OnLossEvent(now sim.Time)           {}
func (f *fixedWindow) OnRTO(now sim.Time)                 {}

var (
	_ cc.RateController   = (*fixedRate)(nil)
	_ cc.WindowController = (*fixedWindow)(nil)
)

// ---- layer drivers ----

// unitFn performs about n units of one layer's work and reports how many it
// did, plus a driver-specific secondary count (engine events, bytes written).
type unitFn func(n int) (done int, aux float64)

// rig names a layer driver. div shrinks the unit budget of expensive units.
type rig struct {
	name string
	div  int
	make func() unitFn
}

func nop(any) {}

const mss = transport.DefaultMSS

// ticker is one self-rescheduling timer chain: each firing schedules the
// next, alternating a short hop (serialization, pacing) with a long one
// (propagation), which is how a packet's events follow one another.
type ticker struct {
	eng     *sim.Engine
	hop     [2]sim.Time
	n       int
	closure bool
}

func tick(a any) { a.(*ticker).again() }

func (t *ticker) again() {
	t.n++
	at := t.eng.Now() + t.hop[t.n&1]
	if t.closure {
		t.eng.At(at, func() { t.again() })
	} else {
		t.eng.Schedule(at, tick, t)
	}
}

// simRig keeps 1024 ticker chains pending, as a run keeps about that many
// packets in flight, and counts fired events.
func simRig(short, long sim.Time, closure bool) func() unitFn {
	return func() unitFn {
		eng := sim.NewEngine(1)
		for i := 0; i < 1024; i++ {
			jitter := sim.Time(i) * 37 * sim.Nanosecond
			t := &ticker{eng: eng, hop: [2]sim.Time{short + jitter, long + jitter}, closure: closure}
			eng.Schedule(sim.Time(i)*sim.Microsecond, tick, t)
		}
		return func(n int) (int, float64) {
			ev0 := eng.Processed
			for eng.Processed-ev0 < uint64(n) {
				eng.Run(eng.Now() + short + long)
			}
			return int(eng.Processed - ev0), 0
		}
	}
}

// rearmRig is the RTO/pacer pattern: cancel a pending pooled timer and arm
// its replacement.
func rearmRig() unitFn {
	eng := sim.NewEngine(1)
	ref := eng.ScheduleRef(200*sim.Millisecond, nop, nil)
	return func(n int) (int, float64) {
		for i := 0; i < n; i++ {
			ref.Stop()
			ref = eng.ScheduleRef(200*sim.Millisecond+sim.Time(i&1023)*sim.Microsecond, nop, nil)
		}
		return n, 0
	}
}

// linkRig pushes MSS packets through one link to a no-op sink; a positive
// bufPkts makes each 256-packet burst overflow the drop-tail queue.
func linkRig(bufPkts int, feedback bool) func() unitFn {
	return func() unitFn {
		eng := sim.NewEngine(1)
		buf := 1 << 30
		if bufPkts > 0 {
			buf = bufPkts * mss
		}
		link := netem.NewLink(eng, "l", 10e9, sim.Millisecond, buf)
		path := netem.NewPath(eng, "p", link)
		sink := netem.SinkFunc(func(*netem.Packet) {})
		return func(n int) (int, float64) {
			ev0 := eng.Processed
			for left := n; left > 0; {
				b := min(left, 256)
				for i := 0; i < b; i++ {
					if feedback {
						path.SendFeedback(nil, sink)
					} else {
						path.Send(mss, nil, sink, nil)
					}
				}
				eng.Run(0)
				left -= b
			}
			return n, float64(eng.Processed - ev0)
		}
	}
}

// segRig runs one bulk connection with one subflow under a stub controller
// and counts delivered segments. Both stubs hold the link at 80 % load, so
// neither builds a queue.
func segRig(window bool, loss float64) func() unitFn {
	return func() unitFn {
		eng := sim.NewEngine(1)
		link := netem.NewLink(eng, "l", topo.DefaultRate, topo.DefaultDelay, topo.DefaultBuffer)
		link.SetLoss(loss)
		path := netem.NewPath(eng, "p", link)
		var conn *transport.Connection
		if window {
			conn = transport.NewConnection(eng, "c", transport.WithScheduler(transport.DefaultScheduler{}))
			conn.AddWindowSubflow(path, &fixedWindow{pkts: 400})
		} else {
			conn = transport.NewConnection(eng, "c", transport.WithScheduler(transport.NewRateScheduler(0.10)))
			conn.AddRateSubflow(path, &fixedRate{bps: 0.8 * topo.DefaultRate})
		}
		conn.SetApp(transport.Bulk{}, nil)
		conn.Start(0)
		segs := func() int { return int(conn.AckedBytes() / mss) }
		return func(n int) (int, float64) {
			s0, ev0 := segs(), eng.Processed
			for segs()-s0 < n {
				eng.Run(eng.Now() + 50*sim.Millisecond)
			}
			return segs() - s0, float64(eng.Processed - ev0)
		}
	}
}

// connRig is one session's life: open, move a 30 KB object, close, with the
// receive buffer and scheduler the churn driver gives its sessions.
func connRig() unitFn {
	eng := sim.NewEngine(1)
	link := netem.NewLink(eng, "l", topo.DefaultRate, sim.Millisecond, topo.DefaultBuffer)
	return func(n int) (int, float64) {
		for i := 0; i < n; i++ {
			path := netem.NewPath(eng, "p", link)
			conn := transport.NewConnection(eng, "c", transport.WithRcvBuf(256<<10),
				transport.WithScheduler(transport.DefaultScheduler{}))
			conn.AddWindowSubflow(path, &fixedWindow{pkts: 32})
			conn.SetApp(transport.NewFile(30000), func(sim.Time) { conn.Close() })
			conn.Start(eng.Now())
			eng.Run(0)
		}
		return n, 0
	}
}

func admitRig() unitFn {
	sv := transport.NewServer("s", 64, 16<<20)
	return func(n int) (int, float64) {
		for i := 0; i < n; i++ {
			if sv.Admit(256<<10) == transport.AdmitOK {
				sv.Release(256 << 10)
			}
		}
		return n, 0
	}
}

// ackRig feeds a synthetic ACK stream to the two subflows of one connection,
// alternately, with a loss event every 1000 ACKs.
func ackRig(mk func(*cc.Coupler) cc.WindowController) func() unitFn {
	return func() unitFn {
		coupler := cc.NewCoupler()
		w := [2]cc.WindowController{mk(coupler), mk(coupler)}
		rtt := [2]sim.Time{60 * sim.Millisecond, 80 * sim.Millisecond}
		now, i := sim.Time(0), 0
		return func(n int) (int, float64) {
			for k := 0; k < n; k++ {
				i++
				now += 100 * sim.Microsecond
				if i%1000 == 0 {
					w[(i/1000)&1].OnLossEvent(now)
					continue
				}
				w[i&1].OnAck(now, rtt[i&1]+sim.Time(i%7)*sim.Millisecond, 1)
			}
			return n, 0
		}
	}
}

// miRig drives rate controllers with the MIStats of a fluid single-link
// model: the controllers share one 100 Mbps link, and whatever they offer
// beyond it is lost and stretches the RTT. Statistics reach a controller one
// monitor interval late, as they do in the transport.
func miRig(mk func() []cc.RateController) func() unitFn {
	return func() unitFn {
		const (
			capBps = topo.DefaultRate
			mi     = 60 * sim.Millisecond
		)
		ctls := mk()
		rates := make([]float64, len(ctls))
		pending := make([]cc.MIStats, len(ctls))
		have := make([]bool, len(ctls))
		now, idx := sim.Time(0), 0
		return func(n int) (int, float64) {
			for k := 0; k < n; k++ {
				j := idx % len(ctls)
				idx++
				now += mi / sim.Time(len(ctls))
				r := ctls[j].NextRate(now, mi)
				if have[j] {
					ctls[j].OnMIComplete(pending[j])
				}
				rates[j] = r
				total := 0.0
				for _, x := range rates {
					total += x
				}
				loss, grad := 0.0, 0.0
				if total > capBps {
					loss = (total - capBps) / total
					grad = 0.02
				}
				sent := int(r * mi.Seconds() / 8)
				lost := int(float64(sent) * loss)
				pending[j] = cc.MIStats{
					Index: idx, Start: now, End: now + mi, TargetRate: r,
					BytesSent: sent, BytesAcked: sent - lost, BytesLost: lost,
					SendRate: r, Goodput: r * (1 - loss), LossRate: loss,
					MinRTT: mi, AvgRTT: mi, RTTGradient: grad, RTTGradientSE: 0.001,
				}
				have[j] = true
			}
			return n, 0
		}
	}
}

func mpccPair(p ccmpcc.UtilityParams, shared bool) func() []cc.RateController {
	return func() []cc.RateController {
		cfg := ccmpcc.DefaultConfig(p)
		rng := rand.New(rand.NewSource(1))
		grp := ccmpcc.NewGroup()
		out := make([]cc.RateController, 2)
		for i := range out {
			if !shared {
				grp = ccmpcc.NewGroup()
			}
			out[i] = ccmpcc.New(cfg, grp, rng)
		}
		return out
	}
}

// emitMix is the fixed ten-kind probe mix of the obs drivers.
func emitMix(b *obs.Bus, at sim.Time) {
	b.SchedPick(at, "f", 0, mss)
	b.RTTSample(at, "f", 0, 60*sim.Millisecond)
	b.MIDecision(at, "f", 0, "probing", 1e7)
	b.UtilitySample(at, "f", 0, "probing", 1e7, 3.5)
	b.RateChange(at, "f", 1, 2e7)
	b.Drop(at, "l1", obs.CauseQueueFull, mss)
	b.QueueDepth(at, "l1", 3*mss)
	b.Retransmit(at, "f", 0, mss)
	b.RTOBackoff(at, "f", 0, sim.Second, 2)
	b.RackMark(at, "f", 1, mss, 5*sim.Millisecond)
}

// emitRig emits the mix into the bus mk builds; aux is the bytes w counted.
func emitRig(mk func(w io.Writer) *obs.Bus) func() unitFn {
	return func() unitFn {
		var w countingWriter
		bus := mk(&w)
		at := sim.Time(0)
		return func(n int) (int, float64) {
			b0 := w.n
			for i := 0; i < n; i += 10 {
				at += 10 * sim.Microsecond
				emitMix(bus, at)
			}
			return (n + 9) / 10 * 10, float64(w.n - b0)
		}
	}
}

func snapshotRig() unitFn {
	reg := obs.NewRegistry()
	bus := obs.NewBus()
	bus.SetRegistry(reg)
	for i := 0; i < 10000; i++ {
		emitMix(bus, sim.Time(i)*sim.Millisecond)
	}
	return func(n int) (int, float64) {
		for i := 0; i < n; i++ {
			reg.Snapshot()
		}
		return n, 0
	}
}

func seriesRig() unitFn {
	s := stats.NewSeries(0, 100*sim.Millisecond)
	at := sim.Time(0)
	return func(n int) (int, float64) {
		for i := 0; i < n; i++ {
			at += 10 * sim.Microsecond
			s.Add(at, mss)
		}
		return n, 0
	}
}

// sessionRig draws what one churn arrival draws: the next arrival instant
// and an object size.
func sessionRig() unitFn {
	arr := workload.NewPoisson(1, 300, nil)
	sz := workload.BoundedPareto{Alpha: 1.3, Min: 30e3, Max: 30e6}
	rng := rand.New(rand.NewSource(2))
	now := sim.Time(0)
	return func(n int) (int, float64) {
		for i := 0; i < n; i++ {
			now = arr.Next(now)
			sz.Sample(rng)
		}
		return n, 0
	}
}

func topoBuildRig() unitFn {
	return func(n int) (int, float64) {
		for i := 0; i < n; i++ {
			topo.Fig3c().Build(sim.NewEngine(int64(i)))
		}
		return n, 0
	}
}

func partitionRig() unitFn {
	return func(n int) (int, float64) {
		for i := 0; i < n; i++ {
			topo.PartitionTopology(topo.Clusters(4))
		}
		return n, 0
	}
}

func attachRig() unitFn {
	eng := sim.NewEngine(1)
	net := topo.Fig3c().Build(eng)
	return func(n int) (int, float64) {
		for i := 0; i < n; i++ {
			paths := []*netem.Path{net.Path("link1"), net.Path("link2")}
			exp.Attach(eng, "c", exp.MPCCLoss, paths, exp.AttachOptions{})
		}
		return n, 0
	}
}

// windowProtos and rateProtos are the protocols of exp/proto.go, split by
// the controller interface they implement.
var (
	windowProtos = []string{string(exp.LIA), string(exp.OLIA), string(exp.Balia), string(exp.WVegas), string(exp.Reno), string(exp.Cubic)}
	rateProtos   = []string{string(exp.MPCCLatency), string(exp.MPCCLoss), string(exp.Vivace), string(exp.MPCCConnLevel), string(exp.BBR)}
)

func windowCtl(proto string) func(*cc.Coupler) cc.WindowController {
	return func(c *cc.Coupler) cc.WindowController {
		switch exp.Protocol(proto) {
		case exp.LIA:
			return coupled.NewLIA(c)
		case exp.OLIA:
			return coupled.NewOLIA(c)
		case exp.Balia:
			return coupled.NewBalia(c)
		case exp.WVegas:
			return coupled.NewWVegas(c, 10)
		case exp.Cubic:
			return cubic.New()
		}
		return reno.New()
	}
}

func rateCtls(proto string) func() []cc.RateController {
	switch exp.Protocol(proto) {
	case exp.MPCCLatency:
		return mpccPair(ccmpcc.LatencyParams(), true)
	case exp.MPCCLoss:
		return mpccPair(ccmpcc.LossParams(), true)
	case exp.Vivace:
		return mpccPair(ccmpcc.LossParams(), false)
	case exp.MPCCConnLevel:
		return func() []cc.RateController {
			cl := ccmpcc.NewConnLevel(ccmpcc.DefaultConfig(ccmpcc.LossParams()), 2)
			return []cc.RateController{cl.Subflow(0), cl.Subflow(1)}
		}
	}
	return func() []cc.RateController { return []cc.RateController{bbr.New(2e6), bbr.New(2e6)} }
}

// rigs lists every layer driver. A driver's name is the prefix of the metrics
// it yields (see layers.go).
func rigs() []rig {
	// One link's serialization time and propagation delay; both inside the
	// wheel's 536 ms span, the far pair beyond it.
	short, long := 120*sim.Microsecond, topo.DefaultDelay
	rs := []rig{
		{"sim.schedule_fire", 1, simRig(short, long, false)},
		{"sim.schedule_fire_far", 1, simRig(600*sim.Millisecond, 900*sim.Millisecond, false)},
		{"sim.ref_rearm", 1, rearmRig},
		{"sim.at_closure", 1, simRig(short, long, true)},
		{"netem.link_transit", 1, linkRig(0, false)},
		{"netem.link_drop", 1, linkRig(128, false)},
		{"netem.feedback", 1, linkRig(0, true)},
		{"transport.rate_seg", 2, segRig(false, 0)},
		{"transport.window_seg", 2, segRig(true, 0)},
		{"transport.lossy_seg", 2, segRig(true, 0.01)},
		{"transport.conn_cycle", 64, connRig},
		{"transport.server_admit", 1, admitRig},
	}
	for _, p := range windowProtos {
		rs = append(rs, rig{"cc." + p + ".ack", 1, ackRig(windowCtl(p))})
	}
	for _, p := range rateProtos {
		rs = append(rs, rig{"cc." + p + ".mi", 1, miRig(rateCtls(p))})
	}
	return append(rs,
		rig{"obs.emit_disabled", 1, emitRig(func(io.Writer) *obs.Bus { return nil })},
		rig{"obs.emit_registry", 1, emitRig(func(io.Writer) *obs.Bus {
			b := obs.NewBus()
			b.SetRegistry(obs.NewRegistry())
			return b
		})},
		rig{"obs.emit_flightrec", 1, emitRig(func(io.Writer) *obs.Bus { return obs.NewBus(obs.NewFlightRecorder(0)) })},
		rig{"obs.emit_jsonl", 1, emitRig(func(w io.Writer) *obs.Bus { return obs.NewBus(obs.NewJSONLWriter(w)) })},
		rig{"obs.emit_hash", 1, emitRig(func(io.Writer) *obs.Bus { return obs.NewBus(obs.NewHashSink()) })},
		rig{"obs.snapshot", 1024, snapshotRig},
		rig{"stats.series_add", 1, seriesRig},
		rig{"workload.session_draw", 1, sessionRig},
		rig{"topo.build", 256, topoBuildRig},
		rig{"topo.partition", 256, partitionRig},
		rig{"exp.attach", 64, attachRig},
	)
}
