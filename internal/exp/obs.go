package exp

import (
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// probeFactory, when set, builds the observability bus for every Run whose
// Spec carries no bus of its own. Returning a fresh bus per call gives each
// run an isolated metrics registry while the factory can still share one
// trace sink (e.g. a JSONL writer) across a sequential sweep. cmd/mpccbench
// -trace installs one.
var probeFactory func() *obs.Bus

// SetProbeFactory installs (or, with nil, removes) the per-run probe bus
// factory. The factory is consulted once per Run, from the goroutine
// executing that run, and the bus's sinks are driven from that goroutine
// only. The obs sinks take no locks — one writer per goroutine — so a
// factory that shares a sink between runs must be combined with a single
// RunParallel worker (byte-reproducible traces require that anyway, since
// run order in a shared trace is scheduling-dependent otherwise).
func SetProbeFactory(f func() *obs.Bus) { probeFactory = f }

// queueSampleEvery is the virtual-time period of the link queue-depth
// sampler Run installs when probes are live.
const queueSampleEvery = 10 * sim.Millisecond
