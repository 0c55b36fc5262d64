// Package exp is the experiment harness: it wires protocols onto canonical
// topologies, runs replicated simulations, and regenerates every table and
// figure of the paper's evaluation (§7) as printable tables. See DESIGN.md
// for the experiment index.
package exp

import (
	"fmt"

	"mpcc/internal/cc"
	"mpcc/internal/cc/bbr"
	"mpcc/internal/cc/coupled"
	"mpcc/internal/cc/cubic"
	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/cc/reno"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/transport"
)

// Protocol names a congestion-control scheme of the evaluation (§7.1).
type Protocol string

// The protocols of the paper's figures.
const (
	MPCCLatency Protocol = "mpcc-latency" // γ=1
	MPCCLoss    Protocol = "mpcc-loss"    // γ=0
	LIA         Protocol = "lia"
	OLIA        Protocol = "olia"
	Balia       Protocol = "balia"
	WVegas      Protocol = "wvegas"
	Reno        Protocol = "reno" // uncoupled single-path Reno per subflow
	Cubic       Protocol = "cubic"
	BBR         Protocol = "bbr" // uncoupled single-path BBR per subflow
	// MPCCConnLevel is the §4 "failed try" connection-level learner
	// (ablation only).
	MPCCConnLevel Protocol = "mpcc-connlevel"
	// Vivace runs an independent single-path PCC Vivace controller per
	// subflow (each with its own rate-publication group) — the naive
	// baseline §1 dismisses: "simply running state-of-the-art single-path
	// congestion control on each subflow fails to achieve fairness".
	Vivace Protocol = "vivace"
)

// MultipathSet is the protocol lineup of Figs. 5 and 6.
var MultipathSet = []Protocol{MPCCLatency, MPCCLoss, LIA, OLIA, Balia, WVegas, Reno, BBR}

// RateBased reports whether the protocol paces by explicit rate (and hence
// uses the paper's rate-based scheduler, §7.1).
func (p Protocol) RateBased() bool {
	switch p {
	case MPCCLatency, MPCCLoss, BBR, MPCCConnLevel, Vivace:
		return true
	}
	return false
}

// SinglePathPeer returns the single-path protocol the paper pits against a
// multipath sender of protocol p (§7.2.1: "PCC Vivace for MPCC and TCP Reno
// for MPTCP").
func (p Protocol) SinglePathPeer() Protocol {
	switch p {
	case MPCCLatency, MPCCLoss, MPCCConnLevel:
		return p // MPCC₁ ≡ PCC Vivace
	case Vivace:
		return MPCCLoss // a single-subflow Vivace is exactly MPCC₁
	case Cubic:
		return Cubic
	case BBR:
		return BBR
	default:
		return Reno
	}
}

// AttachOptions tune protocol attachment.
type AttachOptions struct {
	// Scheduler overrides the protocol's default scheduler.
	Scheduler transport.Scheduler
	// MPCCConfig overrides the MPCC controller configuration (zero value =
	// DefaultConfig of the variant's utility parameters).
	MPCCConfig *ccmpcc.Config
	// ConnOptions are passed through to the transport connection.
	ConnOptions []transport.ConnOption
	// InitialRateBps overrides rate-based controllers' initial rate.
	InitialRateBps float64
	// Probes, if set, is the observability bus the connection and its
	// controllers emit into (see internal/obs). Run wires its per-run bus
	// here automatically; set it only when calling Attach directly.
	Probes *obs.Bus
}

// kernelScheduler installs the default MPTCP scheduler. Stateless, so built
// once: the choice costs a connection no allocation.
var kernelScheduler = transport.WithScheduler(transport.DefaultScheduler{})

// Attach builds a connection named name running protocol p over the given
// paths (one subflow per path) and installs the appropriate scheduler:
// the paper's 10%-threshold rate scheduler for rate-based protocols (the
// connection default), the default MPTCP scheduler for window-based ones
// (§7.1).
func Attach(eng *sim.Engine, name string, p Protocol, paths []*netem.Path, o AttachOptions) *transport.Connection {
	return attachGroup(eng, name, p, paths, o, nil)
}

// attachGroup is Attach with the rate-publication board the subflows of an
// MPCC-latency or MPCC-loss connection join: grp's controllers are rebuilt
// in place (the churn driver recycles its sessions' boards); nil builds a
// new one.
func attachGroup(eng *sim.Engine, name string, p Protocol, paths []*netem.Path, o AttachOptions, grp *ccmpcc.Group) *transport.Connection {
	opts := o.ConnOptions
	if o.Scheduler != nil {
		opts = append(opts, transport.WithScheduler(o.Scheduler))
	} else if !p.RateBased() {
		opts = append(opts, kernelScheduler)
	}
	if o.Probes != nil {
		opts = append(opts, transport.WithProbes(o.Probes))
	}
	// probe attaches the observability bus to controllers that emit events.
	probe := func(ctl any) {
		if o.Probes == nil {
			return
		}
		if ps, ok := ctl.(cc.ProbeSetter); ok {
			ps.SetProbes(o.Probes, name)
		}
	}
	conn := transport.NewConnection(eng, name, opts...)

	switch p {
	case MPCCLatency, MPCCLoss:
		params := ccmpcc.LatencyParams()
		if p == MPCCLoss {
			params = ccmpcc.LossParams()
		}
		cfg := ccmpcc.DefaultConfig(params)
		if o.MPCCConfig != nil {
			cfg = *o.MPCCConfig
			cfg.Params = params
		}
		if o.InitialRateBps > 0 {
			cfg.InitialRateBps = o.InitialRateBps
		}
		if grp == nil {
			grp = ccmpcc.NewGroup()
		}
		for _, path := range paths {
			ctl := ccmpcc.New(cfg, grp, eng.Rand())
			probe(ctl)
			conn.AddRateSubflow(path, ctl)
		}
	case Vivace:
		// One single-member Group per subflow: fully uncoupled Vivace.
		cfg := ccmpcc.DefaultConfig(ccmpcc.LossParams())
		if o.InitialRateBps > 0 {
			cfg.InitialRateBps = o.InitialRateBps
		}
		for _, path := range paths {
			ctl := ccmpcc.New(cfg, ccmpcc.NewGroup(), eng.Rand())
			probe(ctl)
			conn.AddRateSubflow(path, ctl)
		}
	case MPCCConnLevel:
		cfg := ccmpcc.DefaultConfig(ccmpcc.LossParams())
		if o.InitialRateBps > 0 {
			cfg.InitialRateBps = o.InitialRateBps
		}
		cl := ccmpcc.NewConnLevel(cfg, len(paths))
		probe(cl)
		for i, path := range paths {
			conn.AddRateSubflow(path, cl.Subflow(i))
		}
	case BBR:
		initial := 2e6
		if o.InitialRateBps > 0 {
			initial = o.InitialRateBps
		}
		for i, path := range paths {
			ctl := bbr.New(initial)
			if o.Probes != nil {
				ctl.SetProbes(o.Probes, name, i)
			}
			conn.AddRateSubflow(path, ctl)
		}
	case LIA, OLIA, Balia, WVegas:
		coupler := cc.NewCoupler()
		for _, path := range paths {
			var w cc.WindowController
			switch p {
			case LIA:
				w = coupled.NewLIA(coupler)
			case OLIA:
				w = coupled.NewOLIA(coupler)
			case Balia:
				w = coupled.NewBalia(coupler)
			default:
				w = coupled.NewWVegas(coupler, 10)
			}
			conn.AddWindowSubflow(path, w)
		}
	case Reno:
		for _, path := range paths {
			conn.AddWindowSubflow(path, reno.New())
		}
	case Cubic:
		for _, path := range paths {
			conn.AddWindowSubflow(path, cubic.New())
		}
	default:
		panic(fmt.Sprintf("exp: unknown protocol %q", p))
	}
	return conn
}
