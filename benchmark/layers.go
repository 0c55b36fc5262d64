package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// driverChunks is how many timed chunks a driver's unit budget is split into;
// a unit cost is the median chunk's, so one burst of host noise does not set
// it.
const driverChunks = 5

// unitCosts times every layer driver: warm-up units first, then the budget,
// reporting wall nanoseconds, heap objects and the driver's secondary count
// per unit. Keys are metric names.
func unitCosts(tr *tracer, sz sizes) map[string]float64 {
	type cost struct{ ns, allocs, aux float64 }
	raw := map[string]cost{}
	out := map[string]float64{}
	root := tr.begin("layers", -1, 0)
	defer tr.end(root)
	for _, r := range rigs() {
		sp := tr.begin("driver:"+r.name, root, 0)
		run := r.make()
		run(max(sz.warmUnits/r.div, 1))
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var ns []float64
		units, aux := 0, 0.0
		for c := 0; c < driverChunks; c++ {
			start := time.Now()
			done, a := run(max(sz.units/r.div/driverChunks, 1))
			ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(done))
			units += done
			aux += a
		}
		runtime.ReadMemStats(&m1)
		tr.end(sp)
		_, med, _ := quartiles(ns)
		raw[r.name] = cost{med, float64(m1.Mallocs-m0.Mallocs) / float64(units), aux / float64(units)}
		out[r.name+"_ns"] = med
	}

	// The allocation and secondary counts the benchmark publishes.
	out["sim.allocs_per_event"] = raw["sim.schedule_fire"].allocs
	out["netem.allocs_per_pkt"] = raw["netem.link_transit"].allocs
	out["netem.events_per_pkt"] = raw["netem.link_transit"].aux
	out["transport.allocs_per_seg"] = raw["transport.rate_seg"].allocs
	out["transport.events_per_seg"] = raw["transport.rate_seg"].aux
	out["transport.allocs_per_conn"] = raw["transport.conn_cycle"].allocs
	// traced_bulk wires a registry and a JSONL writer, so an event there
	// costs the allocations of both.
	out["obs.allocs_per_event"] = raw["obs.emit_registry"].allocs + raw["obs.emit_jsonl"].allocs
	out["obs.jsonl_bytes_per_event"] = raw["obs.emit_jsonl"].aux
	out["stats.allocs_per_add"] = raw["stats.series_add"].allocs
	for _, p := range windowProtos {
		out["cc."+p+".allocs_per_ack"] = raw["cc."+p+".ack"].allocs
	}
	for _, p := range rateProtos {
		out["cc."+p+".allocs_per_mi"] = raw["cc."+p+".mi"].allocs
	}
	return out
}

// traceWorkload is the traced run: a few untraced iterations at iteration
// 0's seed for the reference wall time, then one with a counting sink and a
// registry on the probe bus for the unit counts, then the cost model over
// costsOf, which is asked last so that drivers never run on a host the
// process has not yet warmed. The result holds every per-layer metric.
func traceWorkload(tr *tracer, name string, sz sizes, seed int64, untraced int, costsOf func() map[string]float64) (*workloadReport, error) {
	rep := &workloadReport{PerLayer: map[string]float64{}}
	root := tr.begin("trace:"+name, -1, seed)
	defer tr.end(root)
	legs := workloadLegs(name, sz)

	var walls []iteration
	for k := 0; k < untraced+1; k++ { // the first one warms up and is dropped
		it, err := runIteration(tr, root, legs, baseSeed(seed), 0, false)
		if err != nil {
			return nil, err
		}
		if k > 0 {
			walls = append(walls, it)
		}
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i].wallS < walls[j].wallS })
	ref := walls[len(walls)/2]
	traced, err := runIteration(tr, root, legs, baseSeed(seed), 0, true)
	if err != nil {
		return nil, err
	}

	rep.Digest = ref.digest
	rep.Iterations = 1
	rep.Attempted = traced.attempted
	rep.Failed = len(traced.failures)
	rep.Failures = traced.failures
	if traced.digest != ref.digest {
		rep.fail("traced digest %s differs from the untraced %s", traced.digest, ref.digest)
	}

	m := rep.PerLayer
	costs := costsOf()
	for k, v := range costs {
		m[k] = v
	}
	var (
		events, pkts, drops, segs, acks, mis, obsEvents uint64
		sessions, rejected                              int
		segBytes, ackedBytes                            int64
		goodput, jain, fct                              float64
		model                                           costModel
	)
	for i, st := range traced.legs {
		p := st.probes
		events += st.events
		pkts += st.pkts
		drops += st.drops
		segs += p.segs
		segBytes += p.segBytes
		acks += p.acks
		mis += p.mis
		obsEvents += p.events
		for _, f := range st.flows {
			ackedBytes += f.acked
		}
		ackedBytes += p.closedAck
		if c := st.churn; c != nil {
			sessions += c.arrivals
			rejected += c.rejected
			fct = c.fctP99
		}
		goodput += st.goodputFrac / float64(len(traced.legs))
		jain += st.jain / float64(len(traced.legs))
		model.add(legs[i], st, costs)
	}
	m["sim.events"] = float64(events)
	m["sim.events_per_sec"] = float64(events) / ref.wallS
	m["netem.pkts"] = float64(pkts)
	m["netem.drops"] = float64(drops)
	m["netem.drop_ratio"] = ratio(float64(drops), float64(pkts+drops))
	m["transport.segs_sent"] = float64(segs)
	m["transport.delivered_ratio"] = ratio(float64(ackedBytes), float64(segBytes))
	m["transport.sessions"] = float64(sessions)
	m["transport.reject_ratio"] = ratio(float64(rejected), float64(sessions+rejected))
	m["cc.acks"] = float64(acks)
	m["cc.mis"] = float64(mis)
	m["obs.events"] = float64(obsEvents)
	m["obs.events_per_sim_event"] = ratio(float64(obsEvents), float64(events))
	m["obs.trace_overhead_frac"] = 1 - (traced.virtS/traced.wallS)/(ref.virtS/ref.wallS)
	m["exp.goodput_frac"] = goodput
	m["exp.jain"] = jain
	m["exp.fct_p99_virt_s"] = fct
	m["proc.gc_cycles"] = float64(ref.gcCycles)
	m["proc.gc_pause_ms"] = ref.gcPauseMs
	m["proc.peak_rss_mb"] = peakRSSMB()

	for k, v := range model.shares(ref.wallS, ref.gcCPUS) {
		m[k] = v
	}

	// What a second core buys a space-parallel workload, on a host that has
	// one to lend right now; the timed pass runs its workers on one core.
	m["sim.shard_speedup"] = 1
	if n := legs[0].shards; n > 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(n, runtime.NumCPU())))
		one, err := runIteration(tr, root, legs, baseSeed(seed), 1, false)
		if err != nil {
			return nil, err
		}
		many, err := runIteration(tr, root, legs, baseSeed(seed), 0, false)
		if err != nil {
			return nil, err
		}
		m["sim.shard_speedup"] = one.wallS / many.wallS
	}
	return rep, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// costModel attributes an iteration's wall time to layers: unit cost × unit
// count, each layer charged its self time only. An engine event is charged to
// sim wherever it was scheduled from, so the drivers' own events are taken
// out of the netem and transport unit costs before those are multiplied.
type costModel struct {
	simNs, netemNs, transportNs, ccNs, obsNs float64
}

func (c *costModel) add(l leg, st runStats, u map[string]float64) {
	fire := u["sim.schedule_fire_ns"]
	self := func(ns float64) float64 { return math.Max(ns, 0) }
	transit := self(u["netem.link_transit_ns"] - u["netem.events_per_pkt"]*fire)
	feedback := self(u["netem.feedback_ns"] - fire) // one delivery event per ACK

	seg := u["transport.rate_seg_ns"]
	switch {
	case l.window && l.lossy:
		seg = u["transport.lossy_seg_ns"]
	case l.window:
		seg = u["transport.window_seg_ns"]
	}
	// A driver segment crosses one link and returns one ACK.
	segSelf := self(seg - u["transport.events_per_seg"]*fire - transit - feedback)

	p := st.probes
	c.simNs += float64(st.events) * fire
	c.netemNs += float64(st.pkts)*transit + float64(st.drops)*u["netem.link_drop_ns"] + float64(p.acks)*feedback
	c.transportNs += float64(p.segs) * segSelf
	if st.churn != nil {
		// The driver's connection moves 20 segments; what is left is the
		// cost of opening and closing it.
		c.transportNs += float64(st.churn.accepted) * self(u["transport.conn_cycle_ns"]-20*u["transport.window_seg_ns"])
	}
	if l.window {
		c.ccNs += float64(p.acks) * u["cc."+l.proto+".ack_ns"]
	} else {
		c.ccNs += float64(p.mis) * u["cc."+l.proto+".mi_ns"]
	}
	emit := u["obs.emit_disabled_ns"]
	if l.jsonl {
		emit = u["obs.emit_registry_ns"] + u["obs.emit_jsonl_ns"]
	}
	c.obsNs += float64(p.events) * emit
}

// shares divides the attributed time by the untraced wall time. GC is the
// runtime's GC CPU time over the same iteration, which on one core is wall
// time. share.unattributed is what is left, and is negative when the model
// claims more than the iteration took.
func (c *costModel) shares(wallS, gcCPUS float64) map[string]float64 {
	wallNs := wallS * 1e9
	s := map[string]float64{
		"share.sim":       c.simNs / wallNs,
		"share.netem":     c.netemNs / wallNs,
		"share.transport": c.transportNs / wallNs,
		"share.cc":        c.ccNs / wallNs,
		"share.obs":       c.obsNs / wallNs,
		"share.gc":        gcCPUS / wallS,
	}
	rest := 1.0
	for _, v := range s {
		rest -= v
	}
	s["share.unattributed"] = rest
	return s
}
