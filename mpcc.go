// Package mpcc is the public facade of the MPCC reproduction: online-
// learning multipath congestion control (Gilad et al., CoNEXT 2020) with a
// deterministic packet-level network emulator, the MPTCP baseline
// controllers, the paper's schedulers, LMMF fairness theory, and the full
// evaluation harness.
//
// Quick start:
//
//	eng := mpcc.NewEngine(42)
//	net := mpcc.NewNetwork(eng)
//	net.AddLink("wifi", 80e6, 15*mpcc.Millisecond, 375_000)
//	net.AddLink("lte", 30e6, 40*mpcc.Millisecond, 750_000)
//	conn := mpcc.NewConnection(eng, "dl", mpcc.MPCCLatency,
//		[]*mpcc.Path{net.Path("wifi"), net.Path("lte")}, mpcc.AttachOptions{})
//	conn.SetApp(mpcc.Bulk{}, nil)
//	conn.Start(0)
//	eng.Run(20 * mpcc.Second)
//
// Every table and figure of the paper can be regenerated with the
// cmd/mpccbench tool.
package mpcc

import (
	"io"

	"mpcc/internal/exp"
	"mpcc/internal/fairness"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
	"mpcc/internal/workload"
)

// Core simulation types.
type (
	// Engine is the deterministic discrete-event simulator driving a run.
	Engine = sim.Engine
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Network is a collection of named emulated links.
	Network = topo.Net
	// Path is a unidirectional route a subflow sends on.
	Path = netem.Path
	// Connection is a multipath transport connection.
	Connection = transport.Connection
	// Bulk is an infinite data source.
	Bulk = transport.Bulk
	// ConnOption tunes a Connection (pass via AttachOptions.ConnOptions).
	ConnOption = transport.ConnOption
	// Protocol names a congestion-control scheme.
	Protocol = exp.Protocol
	// AttachOptions tune protocol attachment.
	AttachOptions = exp.AttachOptions
	// ParallelLinkNetwork is the fairness-theory abstraction of §4.2.
	ParallelLinkNetwork = fairness.Network
	// Allocation is an LMMF allocation on a ParallelLinkNetwork.
	Allocation = fairness.Allocation
	// Clos is the Fig. 18 data-center fabric as a value: it names its links
	// (Topology, Tweak) and each host pair's ECMP paths (SubflowPaths).
	Clos = topo.Clos
	// ProbeBus is the cross-layer observability bus (see internal/obs).
	ProbeBus = obs.Bus
	// ProbeEvent is one typed probe record delivered to sinks.
	ProbeEvent = obs.Event
	// ProbeSink consumes probe events.
	ProbeSink = obs.Sink
	// ProbeSinkFunc adapts a function to ProbeSink.
	ProbeSinkFunc = obs.SinkFunc
	// MetricsRegistry aggregates probe events into counters, gauges, and
	// histograms.
	MetricsRegistry = obs.Registry
	// JSONLWriter is a ProbeSink writing byte-reproducible JSONL traces.
	JSONLWriter = obs.JSONLWriter
	// QueueProbe exposes one link's queue depth to SampleQueues.
	QueueProbe = obs.QueueProbe
	// BWTrace is a recorded bandwidth timeseries for trace-replay links.
	BWTrace = netem.BWTrace
	// Server models one accept point's resource limits: a concurrent-
	// connection cap and a shared receive-buffer byte budget admission
	// control sheds against (see DESIGN.md "Open-loop workload and overload
	// model").
	Server = transport.Server
	// CloseReason records why a Connection closed (done/aborted/idle/
	// handshake-timeout).
	CloseReason = transport.CloseReason
	// PoissonArrivals generates homogeneous Poisson session arrivals.
	PoissonArrivals = workload.Poisson
	// BoundedPareto is the heavy-tailed object-size distribution of the
	// open-loop workload model.
	BoundedPareto = workload.BoundedPareto
	// Backoff is a capped exponential retry schedule with deterministic
	// multiplicative jitter.
	Backoff = workload.Backoff
)

// Time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Evaluated protocols (§7.1); the others convert from their names, e.g.
// Protocol("balia").
const (
	MPCCLatency = exp.MPCCLatency
	MPCCLoss    = exp.MPCCLoss
	LIA         = exp.LIA
	OLIA        = exp.OLIA
	Cubic       = exp.Cubic
)

// AdmitOK is the Server admission outcome that admits a connection.
const AdmitOK = transport.AdmitOK

// CloseDone is the CloseReason of a connection whose transfer completed.
const CloseDone = transport.CloseDone

// NewEngine returns a simulation engine seeded deterministically.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// ParseBWTrace reads a bandwidth trace from CSV ("time_s,rate_mbps" rows,
// # comments and one optional header allowed).
func ParseBWTrace(r io.Reader) (*BWTrace, error) { return netem.ParseBWTrace(r) }

// ParseBWTraceString parses a bandwidth trace held in a string.
func ParseBWTraceString(s string) (*BWTrace, error) { return netem.ParseBWTraceString(s) }

// WithRcvBuf bounds the receiver's reassembly buffer (bytes); 0 means
// unlimited.
func WithRcvBuf(bytes int64) ConnOption { return transport.WithRcvBuf(bytes) }

// WithFailThreshold sets how many consecutive RTO episodes fail a subflow;
// n <= 0 disables the failure detector.
func WithFailThreshold(n int) ConnOption { return transport.WithFailThreshold(n) }

// WithIdleTimeout aborts a connection when no delivery progress happens for
// d; 0 disables the watchdog.
func WithIdleTimeout(d Time) ConnOption { return transport.WithIdleTimeout(d) }

// WithHandshakeTimeout aborts a connection that never delivers a byte
// within d of starting; 0 disables the watchdog.
func WithHandshakeTimeout(d Time) ConnOption { return transport.WithHandshakeTimeout(d) }

// NewServer returns an accept point with the given admission limits;
// maxConns <= 0 or budgetBytes <= 0 disables that limit.
func NewServer(name string, maxConns int, budgetBytes int64) *Server {
	return transport.NewServer(name, maxConns, budgetBytes)
}

// NewPoissonArrivals returns a seeded Poisson arrival process at ratePerSec.
func NewPoissonArrivals(seed int64, ratePerSec float64) *PoissonArrivals {
	return workload.NewPoisson(seed, ratePerSec, nil)
}

// NewNetwork returns an empty network of named links on eng.
func NewNetwork(eng *Engine) *Network { return topo.NewNet(eng) }

// NewProbeBus returns an observability bus delivering to the given sinks.
// Attach it via AttachOptions.Probes (and Link.SetProbes for link drops);
// a nil *ProbeBus everywhere is the disabled, zero-overhead state.
func NewProbeBus(sinks ...ProbeSink) *ProbeBus { return obs.NewBus(sinks...) }

// NewMetricsRegistry returns an empty metrics registry; attach it to a bus
// with SetRegistry to aggregate events as they are emitted.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewJSONLWriter returns a trace sink writing one JSON object per event to
// w, with stable field order (byte-reproducible for a fixed seed).
func NewJSONLWriter(w io.Writer) *JSONLWriter { return obs.NewJSONLWriter(w) }

// SampleQueues periodically emits queue-depth events for the given link
// probes (Link.QueueProbe) onto b for the rest of the run.
func SampleQueues(eng *Engine, b *ProbeBus, every Time, probes ...QueueProbe) {
	obs.SampleQueues(eng, b, every, probes...)
}

// NewFile returns a fixed-size transfer application.
func NewFile(bytes int64) transport.App { return transport.NewFile(bytes) }

// NewConnection builds a connection running the protocol over the paths
// (one subflow per path), with the paper's scheduler defaults.
func NewConnection(eng *Engine, name string, p Protocol, paths []*Path, o AttachOptions) *Connection {
	return exp.Attach(eng, name, p, paths, o)
}

// LMMF computes the lexicographic max-min fair allocation on a
// parallel-link network (the fairness notion of Theorems 4.1/5.1/5.2).
func LMMF(n *ParallelLinkNetwork) (*Allocation, error) { return fairness.LMMF(n) }
