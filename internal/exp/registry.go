package exp

import (
	"sort"

	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

// Experiment is a runnable reproduction of one paper table/figure.
type Experiment struct {
	ID   string
	Desc string
	Run  func(cfg Config) []*Table
}

// Registry returns every experiment, sorted by id. Each entry regenerates
// one figure or table of the paper (see DESIGN.md's per-experiment index).
func Registry() []Experiment {
	exps := []Experiment{
		{"fig2", "utility-gradient vector field (Fig. 2)", func(cfg Config) []*Table {
			return []*Table{Fig2GradientField()}
		}},
		{"fig5a", "multipath goodput vs shallow buffers (Fig. 5a)", func(cfg Config) []*Table {
			return shallowBufferMP(cfg).tables(cfg)
		}},
		{"fig5b", "single-path goodput vs shallow buffers (Fig. 5b)", func(cfg Config) []*Table {
			return shallowBufferSP(cfg).tables(cfg)
		}},
		{"fig6a", "multipath goodput vs random loss (Fig. 6a)", func(cfg Config) []*Table {
			return randomLossMP(cfg).tables(cfg)
		}},
		{"fig6b", "single-path goodput vs random loss (Fig. 6b)", func(cfg Config) []*Table {
			return randomLossSP(cfg).tables(cfg)
		}},
		{"fig7", "tracking the optimum under changing conditions (Fig. 7)", func(cfg Config) []*Table {
			return ChangingConditions(cfg, 8, 5*sim.Second)[:1]
		}},
		{"fig8", "single-path fair share under changing conditions (Fig. 8)", func(cfg Config) []*Table {
			return ChangingConditions(cfg, 8, 5*sim.Second)[1:]
		}},
		{"fig9", "self-induced latency vs buffer size (Fig. 9)", func(cfg Config) []*Table {
			return selfInducedLatency(cfg).tables(cfg)
		}},
		{"fig10", "fairness and utilization across topologies (Fig. 10)", func(cfg Config) []*Table {
			return convergenceSuite(cfg).tables(cfg)
		}},
		{"fig11", "convergence and rate-jitter, MPCC vs Balia (Fig. 11)", func(cfg Config) []*Table {
			return []*Table{ConvergenceTrace(cfg)}
		}},
		{"fig12", "TCP-Cubic friendliness vs buffers (Fig. 12)", func(cfg Config) []*Table {
			return cubicFriendlinessBuffer(cfg).tables(cfg)
		}},
		{"fig13", "TCP-Cubic friendliness vs random loss (Fig. 13)", func(cfg Config) []*Table {
			return cubicFriendlinessLoss(cfg).tables(cfg)
		}},
		{"fig14", "Table-1 parameter grid on topology 3c (Fig. 14)", func(cfg Config) []*Table {
			g := ParameterGrid(cfg, topo.Fig3c, 16)
			return []*Table{g.Table("Fig 14 — MPCC vs LIA/OLIA over the Table-1 grid, topology 3c")}
		}},
		{"fig15", "Table-1 parameter grid on topology 3d (Fig. 15)", func(cfg Config) []*Table {
			g := ParameterGrid(cfg, topo.Fig3d, 16)
			return []*Table{g.Table("Fig 15 — MPCC vs LIA/OLIA over the Table-1 grid, topology 3d")}
		}},
		{"fig16", "AWS→residential download times (Fig. 16)", func(cfg Config) []*Table {
			var out []*Table
			for _, home := range topo.Homes {
				out = append(out, liveDownloads(cfg, home).tables(cfg)...)
			}
			return out
		}},
		{"fig17", "normalized live-download gains (Fig. 17)", func(cfg Config) []*Table {
			return []*Table{Fig17Table(cfg)}
		}},
		{"fig19", "data-center flow completion times (Fig. 19)", func(cfg Config) []*Table {
			return DataCenterFCT(cfg, DefaultDCConfig())
		}},
		{"sched", "rate-based scheduler validation (§6)", func(cfg Config) []*Table {
			return []*Table{SchedulerValidation(cfg)}
		}},
		{"ablation-connlevel", "connection-level vs per-subflow control (§4)", func(cfg Config) []*Table {
			return []*Table{AblationConnLevel(cfg)}
		}},
		{"ablation-omega", "probe step base: connection total vs own rate (§5.2)", func(cfg Config) []*Table {
			return []*Table{AblationOmegaBase(cfg)}
		}},
		{"ablation-publication", "frozen vs live rate publication (§5.2)", func(cfg Config) []*Table {
			return []*Table{AblationNoPublication(cfg)}
		}},
		{"ablation-threshold", "scheduler availability threshold sweep (§6)", func(cfg Config) []*Table {
			return []*Table{AblationSchedulerThreshold(cfg)}
		}},
		{"churn", "robustness: open-loop session churn swept past saturation — admission control, retry backoff, graceful degradation", func(cfg Config) []*Table {
			return Churn(cfg)
		}},
		{"faults", "robustness: mid-run link outage on topology 3c — failure detection, migration, probing revival", func(cfg Config) []*Table {
			return []*Table{FaultRecovery(cfg)}
		}},
		{"leo", "robustness: LEO-satellite handovers — goodput vs cadence and per-dwell re-convergence", func(cfg Config) []*Table {
			return LEO(cfg)
		}},
		{"policer", "robustness: token-bucket policing — goodput and loss-signal behavior when loss carries no latency warning", func(cfg Config) []*Table {
			return Policer(cfg)
		}},
		{"reorder", "robustness: goodput and loss-signal integrity across reordering intensities", func(cfg Config) []*Table {
			return Reorder(cfg)
		}},
		{"web", "extension: web-like short flows over busy links (§9)", func(cfg Config) []*Table {
			return []*Table{WebWorkload(cfg)}
		}},
		{"obs-singlepath", "per-subflow single-path CC wastes capacity on the OLIA topology (§7.2.5)", func(cfg Config) []*Table {
			return []*Table{ObservationSinglePath(cfg)}
		}},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}
