package exp

import (
	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
)

// world is the one place a simulation is wired, run and closed. Run drives
// it for every Spec, so every experiment is probed, traced and counted
// alike (the one other caller is the churn overlay, which attaches its
// sessions mid-run):
//
//	newWorld → build links, Tweak → start → attach… → run
//
// That order of side effects on an engine — RunStart, link probes in the
// order given, the queue sampler, flows attached and started in declaration
// order — fixes timer sequence numbers and is part of the determinism
// contract (DESIGN.md "One world").
//
// A world has one engine, or one per topology component (sharded.go).
// Everything on any engine emits straight into the run bus. Sinks and the
// registry are unsynchronized, so a probed world with several engines steps
// them in time order on the caller's goroutine; an unprobed one advances
// them on the worker pool.
type world struct {
	seed    int64
	bus     *obs.Bus // the run's bus; nil = observability off
	engines []*sim.Engine
	workers int
}

// newWorld takes the run's bus (nil = observability off), gives it a
// registry, and adopts the engines. workers bounds how many of them advance
// concurrently (≤ 1 = inline).
func newWorld(seed int64, probes *obs.Bus, workers int, engines []*sim.Engine) *world {
	w := &world{seed: seed, bus: probes, engines: engines, workers: workers}
	if w.bus != nil && w.bus.Registry() == nil {
		w.bus.SetRegistry(obs.NewRegistry())
	}
	return w
}

// queueSampleEvery is the virtual-time period of the link queue-depth
// sampler a probed run installs.
const queueSampleEvery = 10 * sim.Millisecond

// start opens the run in the trace and wires the probes of net's links, in
// creation order (never map order), plus one queue-depth sampler per engine
// over that engine's links.
func (w *world) start(horizon sim.Time, net *topo.Net) {
	if w.bus == nil {
		return
	}
	w.bus.RunStart(w.seed, horizon)
	links := make([]*netem.Link, len(net.LinkNames()))
	for i, name := range net.LinkNames() {
		links[i] = net.Link(name)
		links[i].SetProbes(w.bus)
	}
	if horizon <= 0 {
		return
	}
	for _, eng := range w.engines {
		var qps []obs.QueueProbe
		for _, l := range links {
			if l.Engine() == eng {
				qps = append(qps, l.QueueProbe())
			}
		}
		obs.SampleQueues(eng, w.bus, queueSampleEvery, qps...)
	}
}

// attach builds a connection on the engine its paths live on, with the
// paths, the connection and its controllers probed by the run bus (unless o
// names a bus of its own); grp is attachGroup's.
func (w *world) attach(name string, p Protocol, paths []*netem.Path, o AttachOptions, grp *ccmpcc.Group) *transport.Connection {
	eng := w.engines[0]
	if len(paths) > 0 {
		eng = paths[0].Engine()
	}
	for _, path := range paths {
		path.SetProbes(w.bus)
	}
	if o.Probes == nil {
		o.Probes = w.bus
	}
	return attachGroup(eng, name, p, paths, o, grp)
}

// run advances every engine to the horizon (0 = until idle or stopped) and
// closes the run. Engines share nothing, so each is still a strictly
// sequential engine and the worker count can never change an event order.
// Closing means: the engine gauges are published, the registry is
// snapshotted, the trace gets its run-end marker — at the latest engine
// clock, so never before an emitted event; a sink that wants the run's
// metrics reads the bus's registry when it sees the marker — and the
// simulation is counted. events sums over engines; queue folds their queue
// counters.
func (w *world) run(horizon sim.Time) (snap *obs.Snapshot, events uint64, queue sim.QueueStats) {
	if w.bus != nil && len(w.engines) > 1 {
		w.step(horizon)
	} else {
		runPool(len(w.engines), w.workers, func(c int) { w.engines[c].Run(horizon) })
	}
	maxPending, end := 0, sim.Time(0)
	for _, e := range w.engines {
		end = max(end, e.Now()) // an engine of finite flows stops at its last FCT
		events += e.Processed
		if mp := e.MaxPending(); mp > maxPending {
			maxPending = mp
		}
		foldQueue(&queue, e.QueueStats())
	}
	if w.bus != nil {
		reg := w.bus.Registry() // newWorld made sure there is one
		reg.Gauge("sim.events_processed").Set(float64(events))
		reg.Gauge("sim.max_pending_timers").Set(float64(maxPending))
		reg.Gauge("sim.max_pending_imminent").Set(float64(queue.ImminentMax))
		reg.Gauge("sim.max_pending_wheel").Set(float64(queue.WheelMax))
		snap = reg.Snapshot()
		w.bus.RunEnd(end)
	}
	countSim()
	return snap, events, queue
}

// step advances the engines on the caller's goroutine, the probed
// multi-engine world's run: it fires the earliest due event of any engine —
// on a tie the lower component's, the partition's canonical order — until
// no engine has one due by the horizon, so the run bus sees one stream in
// (engine time, component) order whatever the shard count. Each engine
// then ends as Run would leave it: at the horizon, or where Stop left it.
func (w *world) step(horizon sim.Time) {
	for {
		var first *sim.Engine
		var due sim.Time
		for _, e := range w.engines {
			if at, ok := e.NextAt(); ok && (first == nil || at < due) && (horizon <= 0 || at <= horizon) {
				first, due = e, at
			}
		}
		if first == nil {
			break
		}
		first.Step()
	}
	for _, e := range w.engines {
		// Run fires nothing here; it moves the clock to the horizon. A
		// stopped engine with timers left keeps its clock: Run would
		// restart it.
		if _, ok := e.NextAt(); ok || e.Pending() == 0 {
			e.Run(horizon)
		}
	}
}

// foldQueue accumulates one engine's queue counters into agg: counts sum,
// high-water marks keep the maximum.
func foldQueue(agg *sim.QueueStats, q sim.QueueStats) {
	agg.ImminentInserts += q.ImminentInserts
	agg.ImminentCancels += q.ImminentCancels
	agg.WheelInserts += q.WheelInserts
	agg.WheelCancels += q.WheelCancels
	agg.SlotDrains += q.SlotDrains
	agg.ImminentMax = max(agg.ImminentMax, q.ImminentMax)
	agg.WheelMax = max(agg.WheelMax, q.WheelMax)
}
