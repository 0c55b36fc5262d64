package main

import (
	"encoding/json"
	"strings"
)

// metricDef declares one metric: BENCHMARK.json is generated from these
// tables (-manifest), so the names here are the names everywhere.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the median it may worsen by
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run times iterations for.
const runSeconds = 10

var workloadDefs = []workloadDef{
	{"bulk_mpcc", "Fig3c bulk MPCC-loss vs Vivace peer: the paced hot path (pacer timers, MI roll-over); sim+netem+transport do the work, cc and obs almost none"},
	{"baselines_lossy", "LIA, OLIA, Balia, wVegas, Reno, Cubic, BBR in turn over 0.1% loss and a 60 KB buffer: ACK-clocked windows, loss recovery and per-ACK coupled cc; bulk_mpcc should not move with it"},
	{"churn_overload", "Open-loop Poisson sessions at 1.3x the farm's capacity: connection lifecycle, pools, admission and timer cancellation dominate; steady per-packet work is the minority"},
	{"traced_bulk", "bulk_mpcc with a registry and a JSONL sink on the probe bus: the same layers with obs enabled, so trading the disabled path against the enabled one shows"},
	{"sharded_clusters", "Four disjoint clusters on two shard workers: sim.Group, topo.Partition, per-shard probe buffers and the sharded runner, where bulk_mpcc runs one engine"},
}

var endToEndDefs = []metricDef{
	{"virt_s_per_wall_s", "s/s", "higher", 0.25},
	{"allocs_per_virt_s", "1/s", "lower", 0.05},
	{"alloc_mb_per_virt_s", "MB/s", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerDefs lists the per-layer metrics: unit costs from the layer
// drivers, unit counts from the traced run, and the cost model's shares.
func perLayerDefs() []metricDef {
	defs := func(unit, better string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
		return out
	}
	ns := func(names ...string) []metricDef { return defs("ns", "lower", names...) }
	count := func(better string, names ...string) []metricDef { return defs("count", better, names...) }
	frac := func(better string, names ...string) []metricDef { return defs("ratio", better, names...) }
	var d []metricDef
	add := func(ms ...[]metricDef) {
		for _, m := range ms {
			d = append(d, m...)
		}
	}
	add(ns("sim.schedule_fire_ns", "sim.schedule_fire_far_ns", "sim.ref_rearm_ns", "sim.at_closure_ns"),
		count("lower", "sim.allocs_per_event"),
		ns("netem.link_transit_ns", "netem.link_drop_ns", "netem.feedback_ns"),
		count("lower", "netem.allocs_per_pkt", "netem.events_per_pkt"),
		ns("transport.rate_seg_ns", "transport.window_seg_ns", "transport.lossy_seg_ns",
			"transport.conn_cycle_ns", "transport.server_admit_ns"),
		count("lower", "transport.allocs_per_seg", "transport.allocs_per_conn", "transport.events_per_seg"))
	for _, p := range windowProtos {
		add(ns("cc."+p+".ack_ns"), count("lower", "cc."+p+".allocs_per_ack"))
	}
	for _, p := range rateProtos {
		add(ns("cc."+p+".mi_ns"), count("lower", "cc."+p+".allocs_per_mi"))
	}
	add(ns("obs.emit_disabled_ns", "obs.emit_registry_ns", "obs.emit_flightrec_ns", "obs.emit_jsonl_ns", "obs.emit_hash_ns"),
		count("lower", "obs.allocs_per_event"),
		defs("B", "lower", "obs.jsonl_bytes_per_event"),
		ns("obs.snapshot_ns", "stats.series_add_ns"),
		count("lower", "stats.allocs_per_add"),
		ns("workload.session_draw_ns", "topo.build_ns", "topo.partition_ns", "exp.attach_ns"),

		count("lower", "sim.events"),
		defs("1/s", "higher", "sim.events_per_sec"),
		frac("higher", "sim.shard_speedup"),
		count("lower", "netem.pkts", "netem.drops"),
		frac("lower", "netem.drop_ratio"),
		count("lower", "transport.segs_sent"),
		frac("higher", "transport.delivered_ratio"),
		count("higher", "transport.sessions"),
		frac("lower", "transport.reject_ratio"),
		count("lower", "cc.acks", "cc.mis", "obs.events"),
		frac("lower", "obs.events_per_sim_event", "obs.trace_overhead_frac"),
		frac("higher", "exp.goodput_frac", "exp.jain"),
		defs("s", "lower", "exp.fct_p99_virt_s"),
		count("lower", "proc.gc_cycles"),
		defs("ms", "lower", "proc.gc_pause_ms"),
		defs("MB", "lower", "proc.peak_rss_mb"),
		frac("lower", "share.sim", "share.netem", "share.transport", "share.cc", "share.obs", "share.gc", "share.unattributed"))
	return d
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerDefs() {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is made of strings and numbers
	}
	return append(b, '\n')
}

func workloadNames() string {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}
