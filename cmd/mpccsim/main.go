// Command mpccsim runs an ad-hoc multipath simulation: a configurable
// parallel-link network, one multipath connection plus an optional
// single-path competitor, any of the implemented protocols.
//
// Example (the paper's topology 3c with defaults):
//
//	mpccsim -proto mpcc-latency -links 100,100 -share -dur 30s
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"mpcc/internal/exp"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made explicit, so
// tests can drive it: 0 on success, 1 when the -trace file cannot be
// created, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpccsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		proto  = fs.String("proto", "mpcc-latency", "multipath protocol")
		spPeer = fs.String("sp", "", "single-path competitor protocol (default: the paper's peer)")
		links  = fs.String("links", "100,100", "comma-separated link bandwidths in Mbps")
		delay  = fs.Duration("delay", 30*time.Millisecond, "one-way link delay")
		buffer = fs.Int("buffer", 375, "link buffer in KB")
		loss   = fs.Float64("loss", 0, "random loss fraction on every link")
		share  = fs.Bool("share", false, "add a single-path competitor on the last link")
		dur    = fs.Duration("dur", 30*time.Second, "virtual duration")
		warm   = fs.Duration("warmup", 10*time.Second, "warmup omitted from averages")
		seed   = fs.Int64("seed", 1, "random seed")
		traceF = fs.String("trace", "", "write MPCC controller decisions to this CSV file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Values the simulation cannot run (it would panic, never finish, or
	// measure nothing) are refused instead of run.
	known := slices.Concat(exp.MultipathSet, []exp.Protocol{exp.Cubic, exp.MPCCConnLevel, exp.Vivace})
	var bad string
	switch {
	case !slices.Contains(known, exp.Protocol(*proto)):
		bad = fmt.Sprintf("-proto %q: unknown protocol", *proto)
	case *spPeer != "" && !slices.Contains(known, exp.Protocol(*spPeer)):
		bad = fmt.Sprintf("-sp %q: unknown protocol", *spPeer)
	case *delay < 0:
		bad = fmt.Sprintf("-delay %v: need a non-negative delay", *delay)
	case *buffer < 1:
		bad = fmt.Sprintf("-buffer %d: need a positive buffer", *buffer)
	case !(*loss >= 0 && *loss <= 1): // also rejects NaN
		bad = fmt.Sprintf("-loss %g: need a fraction in [0, 1]", *loss)
	case *dur <= 0:
		bad = fmt.Sprintf("-dur %v: need a positive duration", *dur)
	case *warm < 0:
		bad = fmt.Sprintf("-warmup %v: need a non-negative warm-up", *warm)
	case *warm >= *dur:
		bad = fmt.Sprintf("-warmup %v leaves nothing of -dur %v to measure", *warm, *dur)
	}
	if bad != "" {
		fmt.Fprintln(stderr, bad)
		return 2
	}

	tp := &topo.Topology{}
	mp := exp.FlowSpec{Name: "mp", Proto: exp.Protocol(*proto)}
	var rates []float64
	for i, f := range strings.Split(*links, ",") {
		bw, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err == nil && !(bw > 0) { // also rejects NaN
			err = fmt.Errorf("bandwidth %q is not a positive number of Mbps", f)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bad -links: %v\n", err)
			return 2
		}
		name := fmt.Sprintf("link%d", i+1)
		tp.Links = append(tp.Links, name)
		rates = append(rates, bw*1e6)
		mp.Paths = append(mp.Paths, []string{name})
	}

	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		traceW := csv.NewWriter(f)
		defer traceW.Flush()
		traceW.Write([]string{"t_seconds", "subflow", "kind", "state", "rate_mbps", "utility"})
		// A bus of the mp flow's own: every MI decision and utility sample
		// of its controllers becomes a row. A per-flow bus starts no sampler
		// timer, so tracing cannot move the event count.
		mp.Attach.Probes = obs.NewBus(obs.SinkFunc(func(e obs.Event) {
			kind, rateBps, utility := "decision", e.Value, 0.0
			if e.Kind == obs.KindUtility {
				kind, rateBps, utility = "utility", e.Aux, e.Value
			} else if e.Kind != obs.KindMIDecision {
				return
			}
			traceW.Write([]string{
				strconv.FormatFloat(e.At.Seconds(), 'f', 4, 64),
				strconv.Itoa(int(e.Subflow)), kind, e.State,
				strconv.FormatFloat(rateBps/1e6, 'f', 3, 64),
				strconv.FormatFloat(utility, 'f', 4, 64),
			})
		}))
	}

	flows := []exp.FlowSpec{mp}
	if *share {
		peer := exp.Protocol(*spPeer)
		if peer == "" {
			peer = mp.Proto.SinglePathPeer()
		}
		flows = append(flows, exp.FlowSpec{Name: "sp", Proto: peer, Paths: mp.Paths[len(mp.Paths)-1:]})
	}

	res := exp.Run(exp.Spec{
		Seed: *seed, Duration: sim.FromDuration(*dur), Warmup: sim.FromDuration(*warm),
		Topo: tp, Flows: flows,
		Tweak: func(net *topo.Net) {
			for i, name := range net.LinkNames() {
				l := net.Link(name)
				l.SetRate(rates[i])
				l.SetDelay(sim.FromDuration(*delay))
				l.SetBuffer(*buffer * 1000)
				l.SetLoss(*loss)
			}
		},
	})

	fmt.Fprintf(stdout, "protocol %s over %d link(s), %v, buffer %dKB, loss %g\n",
		*proto, len(tp.Links), *delay, *buffer, *loss)
	fmt.Fprintf(stdout, "  mp goodput: %7.1f Mbps", res.Flows["mp"].GoodputBps/1e6)
	for i, g := range res.Flows["mp"].SubflowGoodputBps {
		fmt.Fprintf(stdout, "  [sf%d %.1f]", i+1, g/1e6)
	}
	m, sd := res.Conns["mp"].MeanLatency()
	fmt.Fprintf(stdout, "  rtt %.1f±%.1f ms\n", m*1e3, sd*1e3)
	if *share {
		m, sd = res.Conns["sp"].MeanLatency()
		fmt.Fprintf(stdout, "  sp goodput: %7.1f Mbps  rtt %.1f±%.1f ms\n",
			res.Flows["sp"].GoodputBps/1e6, m*1e3, sd*1e3)
	}
	fmt.Fprintf(stdout, "  events processed: %d\n", res.Events)
	return 0
}
