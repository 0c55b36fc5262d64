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

// RateBased reports whether the protocol paces by explicit rate: its
// subflows are rate subflows, for which the connection picks the paper's
// rate-based scheduler (§7.1).
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

// AttachOptions tune protocol attachment. The scheduler is the connection's
// own choice (transport picks §7.1's for its subflows; pass
// transport.WithScheduler in ConnOptions to override it), and the MPCC
// controller's utility parameters are the protocol's.
type AttachOptions struct {
	// ConnOptions are passed through to the transport connection.
	ConnOptions []transport.ConnOption
	// InitialRateBps overrides rate-based controllers' initial rate (MPCC,
	// Vivace, the connection-level learner and BBR; 0 keeps 2 Mbps).
	InitialRateBps float64
	// ScaleByOwnRate and LivePublication are the MPCC controller's two §5.2
	// ablation switches (see ccmpcc.Config).
	ScaleByOwnRate, LivePublication bool
	// Probes, if set, is the observability bus the connection and its
	// controllers emit into (see internal/obs). Run wires its per-run bus
	// here automatically; set it only when calling Attach directly.
	Probes *obs.Bus
}

// Attach builds a connection named name running protocol p over the given
// paths (one subflow per path); the connection installs §7.1's scheduler
// for the protocol's family when it starts.
func Attach(eng *sim.Engine, name string, p Protocol, paths []*netem.Path, o AttachOptions) *transport.Connection {
	return attachGroup(eng, name, p, paths, o, nil)
}

// attachGroup is Attach with the rate-publication board the subflows of an
// MPCC-latency or MPCC-loss connection join (a Vivace connection's first
// subflow; each further one gets a board of its own): grp's controllers are
// rebuilt in place (the churn driver recycles its sessions' boards); nil
// builds a new one.
func attachGroup(eng *sim.Engine, name string, p Protocol, paths []*netem.Path, o AttachOptions, grp *ccmpcc.Group) *transport.Connection {
	opts := o.ConnOptions
	if o.Probes != nil {
		opts = append(opts, transport.WithProbes(o.Probes))
	}
	conn := transport.NewConnection(eng, name, opts...)
	// probe hands a controller the bus, tagged with the connection and the
	// subflow it drives.
	probe := func(ctl cc.ProbeSetter, sf int) { ctl.SetProbes(o.Probes, name, sf) }
	params := ccmpcc.LossParams()
	if p == MPCCLatency {
		params = ccmpcc.LatencyParams()
	}
	cfg := ccmpcc.DefaultConfig(params)
	cfg.ScaleByOwnRate, cfg.LivePublication = o.ScaleByOwnRate, o.LivePublication
	if o.InitialRateBps > 0 {
		cfg.InitialRateBps = o.InitialRateBps
	}

	switch p {
	case MPCCLatency, MPCCLoss, Vivace:
		if grp == nil {
			grp = ccmpcc.NewGroup()
		}
		for i, path := range paths {
			if p == Vivace && i > 0 {
				grp = ccmpcc.NewGroup() // one Group per subflow: fully uncoupled
			}
			ctl := ccmpcc.New(cfg, grp, eng.Rand())
			probe(ctl, i)
			conn.AddRateSubflow(path, ctl)
		}
	case MPCCConnLevel:
		cl := ccmpcc.NewConnLevel(cfg, len(paths))
		probe(cl, -1)
		for i, path := range paths {
			conn.AddRateSubflow(path, cl.Subflow(i))
		}
	case BBR:
		for i, path := range paths {
			ctl := bbr.New(cfg.InitialRateBps)
			probe(ctl, i)
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
