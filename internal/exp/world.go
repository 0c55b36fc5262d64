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
// A world has one engine, or one per topology component (sharded.go). With
// one it emits straight into the run bus and runs inline. With several,
// probe events cannot go to the run bus live (sinks and the registry are
// unsynchronized): each engine records into a private buffer while the
// worker pool advances them, and run ends by merging the buffers into the
// run bus.
type world struct {
	seed    int64
	bus     *obs.Bus // the run's bus; nil = observability off
	engines []*sim.Engine
	workers int
	recs    []*eventRecorder // one per engine, when there are several and a bus
}

// newWorld resolves the run's bus — probes, else the package probe factory,
// else none — gives it a registry, and adopts the engines. workers bounds how
// many of them advance concurrently (≤ 1 = inline).
func newWorld(seed int64, probes *obs.Bus, workers int, engines []*sim.Engine) *world {
	w := &world{seed: seed, bus: probes, engines: engines, workers: workers}
	if w.bus == nil && probeFactory != nil {
		w.bus = probeFactory()
	}
	if w.bus == nil {
		return w
	}
	if w.bus.Registry() == nil {
		w.bus.SetRegistry(obs.NewRegistry())
	}
	if len(engines) > 1 {
		w.recs = make([]*eventRecorder, len(engines))
		for c := range w.recs {
			w.recs[c] = &eventRecorder{}
			w.recs[c].bus = obs.NewBus(w.recs[c])
		}
	}
	return w
}

// busOn returns the bus that whatever lives on eng emits into: the run bus,
// or eng's recording bus when the world has several engines.
func (w *world) busOn(eng *sim.Engine) *obs.Bus {
	for c, r := range w.recs {
		if w.engines[c] == eng {
			return r.bus
		}
	}
	return w.bus
}

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
		links[i].SetProbes(w.busOn(links[i].Engine()))
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
		obs.SampleQueues(eng, w.busOn(eng), queueSampleEvery, qps...)
	}
}

// attach builds a connection on the engine its paths live on, with the
// paths, the connection and its controllers probed by that engine's bus
// (unless o names a bus of its own); grp is attachGroup's.
func (w *world) attach(name string, p Protocol, paths []*netem.Path, o AttachOptions, grp *ccmpcc.Group) *transport.Connection {
	eng := w.engines[0]
	if len(paths) > 0 {
		eng = paths[0].Engine()
	}
	bus := w.busOn(eng)
	for _, path := range paths {
		path.SetProbes(bus)
	}
	if o.Probes == nil {
		o.Probes = bus
	}
	return attachGroup(eng, name, p, paths, o, grp)
}

// run advances every engine to the horizon (0 = until idle or stopped) and
// closes the run. Engines share nothing, so each is still a strictly
// sequential engine and the worker count can never change an event order.
// Closing means: recorded streams replay into the run bus, the engine
// gauges are published, the registry is snapshotted, the trace gets its
// run-end marker — at the latest engine clock, so never before a merged
// event; a sink that wants the run's metrics reads the bus's registry when
// it sees the marker — and the simulation is counted. events sums over
// engines; queue folds their queue counters.
func (w *world) run(horizon sim.Time) (snap *obs.Snapshot, events uint64, queue sim.QueueStats) {
	runPool(len(w.engines), w.workers, func(c int) { w.engines[c].Run(horizon) })
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
		replayMerged(w.bus, w.recs)
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
