package exp

import (
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

// Config scales the experiments. The paper runs 200 s × 5 repetitions with
// the first 30 s omitted; convergence happens within a few hundred monitor
// intervals, so the default reproduces the same steady-state comparisons at
// a tractable scale (EXPERIMENTS.md records the settings used per figure).
type Config struct {
	Duration sim.Time
	Warmup   sim.Time
	Reps     int
	Seed     int64
	// Full selects paper-scale sweeps where the default subsamples (the
	// 576-configuration grids of Figs. 14–15, the 75 MB live downloads).
	Full bool
	// Workers is how many simulations run concurrently; ≤ 0 means
	// runtime.GOMAXPROCS(0) at the call, 1 runs them inline in enumeration
	// order. Tables are byte-identical for any value.
	Workers int
	// Probes, if set, builds the observability bus of every simulation: it
	// is called once per run, on the worker that runs it, and its bus
	// becomes the run's Spec.Probes. A fresh bus per call gives each run its
	// own registry; sinks shared between the buses take no locks, so a
	// factory that shares one needs Workers 1 (which a byte-reproducible
	// trace of several runs needs anyway).
	Probes func() *obs.Bus
}

// spec starts a Spec at the configuration's scale — its seed, duration and
// warm-up — for protocol p on topology tp with the given (or no) link tweak.
func (c Config) spec(tp *topo.Topology, p Protocol, tweak func(*topo.Net)) Spec {
	return Spec{Seed: c.Seed, Duration: c.Duration, Warmup: c.Warmup, Topo: tp, Proto: p, Tweak: tweak}
}
