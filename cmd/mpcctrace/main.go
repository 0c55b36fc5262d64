// Command mpcctrace analyzes JSONL probe traces produced by the obs layer
// (mpccbench -trace, or any obs.JSONLWriter sink).
//
// Usage:
//
//	mpcctrace summary [-run N] [trace.jsonl]
//	mpcctrace filter [-kind k] [-flow f] [-link l] [-sf n] [-run N] [trace.jsonl]
//	mpcctrace csv -kind k [-bucket 100ms] [-run N] [trace.jsonl]
//	mpcctrace timeline [-window 100ms] [-csv] [-run N] [input.jsonl]
//
// With no file argument the trace is read from stdin. A trace may contain
// several runs (segmented by run-start/run-end markers); -run selects one by
// zero-based index, the default being all runs for summary/filter and the
// first run for csv (concatenated runs overlap in virtual time, so a
// time-series export of more than one is rarely meaningful).
//
// summary replays each run's events through the same metrics registry the
// live run used, so its counters and histogram percentiles match that run's
// snapshot (exp.Result.Obs, one per simulation: each replicate of a
// -reps sweep is its own run in the trace) exactly; runs that saw path impairments or loss-
// detection activity additionally get a "hostile path" breakdown of drops
// vs reorders vs duplicates vs spurious retransmits.
// filter re-emits matching events as JSONL,
// preserving the stable field order. csv converts events to aligned
// per-bucket series in the CSV form of timeline -csv, one column per link or
// flow/sfN, for plotting: event-count kinds (drop, retransmit, sched-pick)
// aggregate as bytes per bucket, level kinds (rate-change, mi-decision,
// utility, rto-backoff, queue-depth) as the bucket mean, and an empty bucket
// reads 0.
//
// timeline renders the windowed per-path series (rate, RTT, queue depth) as
// aligned columns, one row per time window — or plain CSV with -csv. It
// accepts either an event trace (replayed through a fresh metrics registry,
// window width set by -window) or a timeline dump written by mpccbench
// -timeline (one obs.AppendTimeline line per run); the input form is
// auto-detected per line.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
)

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(exitCode(err))
}

const usageLine = "usage: mpcctrace <summary|filter|csv|timeline> [flags] [trace.jsonl]"

// usageError marks an error in how the command was invoked — an unknown
// subcommand, a bad flag or flag value, a missing -kind — as opposed to a
// trace that cannot be read or holds nothing to show.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitCode is the exit status for run's result: 0 on success and for -h,
// 2 for a usage error, 1 for any other failure.
func exitCode(err error) int {
	var u usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &u):
		return 2
	}
	return 1
}

// parseFlags parses a subcommand's flags; a bad flag is a usage error, -h
// is flag.ErrHelp.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err}
	}
	return err
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		return usagef(usageLine)
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "-h", "-help", "--help":
		fmt.Fprintln(stdout, usageLine)
		return nil
	case "summary":
		return cmdSummary(args, stdin, stdout)
	case "filter":
		return cmdFilter(args, stdin, stdout)
	case "csv":
		return cmdCSV(args, stdin, stdout)
	case "timeline":
		return cmdTimeline(args, stdin, stdout)
	default:
		return usagef(usageLine)
	}
}

// openInput resolves the optional trailing file argument.
func openInput(fs *flag.FlagSet, stdin io.Reader) (io.Reader, func(), error) {
	switch fs.NArg() {
	case 0:
		return stdin, func() {}, nil
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return nil, nil, err
		}
		return f, func() { f.Close() }, nil
	default:
		return nil, nil, usagef("at most one trace file argument, got %d", fs.NArg())
	}
}

// forEachRun streams the trace, tracking run boundaries, and calls fn for
// every event (markers included) whose run index matches sel (-1 = all).
// Events before any run-start marker belong to run 0.
func forEachRun(r io.Reader, sel int, fn func(runIdx int, e obs.Event) error) (runs int, err error) {
	idx, started := 0, false
	err = obs.ReadTrace(r, func(e obs.Event) error {
		if e.Kind == obs.KindRunStart {
			if started {
				idx++
			}
			started = true
		}
		if sel < 0 || idx == sel {
			if err := fn(idx, e); err != nil {
				return err
			}
		}
		return nil
	})
	if !started && idx == 0 {
		// A headerless trace still counts as one run if it had any events;
		// callers that care check their own accumulators.
		return 1, err
	}
	return idx + 1, err
}

// ---- summary ----

type runAgg struct {
	reg     *obs.Registry
	events  int
	seed    int64
	horizon float64
	endAt   sim.Time
	hasSeed bool
}

func cmdSummary(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	runSel := fs.Int("run", -1, "summarize only this run (0-based; -1 = every run)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	in, done, err := openInput(fs, stdin)
	if err != nil {
		return err
	}
	defer done()

	aggs := map[int]*runAgg{}
	var order []int
	_, err = forEachRun(in, *runSel, func(idx int, e obs.Event) error {
		a := aggs[idx]
		if a == nil {
			a = &runAgg{reg: obs.NewRegistry()}
			aggs[idx] = a
			order = append(order, idx)
		}
		switch e.Kind {
		case obs.KindRunStart:
			a.seed, a.horizon, a.hasSeed = e.Bytes, e.Value, true
		case obs.KindRunEnd:
			a.endAt = e.At
		default:
			a.events++
			a.reg.Record(e)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(order) == 0 {
		return fmt.Errorf("no events%s", selNote(*runSel))
	}
	for i, idx := range order {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		a := aggs[idx]
		fmt.Fprintf(stdout, "run %d:", idx)
		if a.hasSeed {
			fmt.Fprintf(stdout, " seed=%d horizon=%gs", a.seed, a.horizon)
		}
		if a.endAt > 0 {
			fmt.Fprintf(stdout, " end=%v", a.endAt)
		}
		fmt.Fprintf(stdout, " events=%d\n", a.events)
		snap := a.reg.Snapshot()
		printHostile(stdout, snap)
		printSessions(stdout, snap)
		printSnapshot(stdout, snap)
	}
	return nil
}

// printHostile renders the hostile-path breakdown: what the network did to
// the packets (drops vs reorders vs duplicates vs ACK compression), what the
// adversarial path contracts did (policer drops, shaper deferrals, LEO
// handovers), and what the loss detector concluded (RACK marks, retransmits
// later proven spurious). Omitted entirely when the run saw none of it.
func printHostile(w io.Writer, s *obs.Snapshot) {
	reo := s.Counters["reorders"]
	dup := s.Counters["duplicates"]
	ackc := s.Counters["ack_compressions"]
	rack := s.Counters["rack_marks"]
	spur := s.Counters["spurious_retx"]
	pol := s.Counters["drops.policer"]
	shp := s.Counters["shaper_delays"]
	ho := s.Counters["handovers"]
	if reo+dup+ackc+rack+spur+pol+shp+ho == 0 {
		return
	}
	fmt.Fprintln(w, "hostile path:")
	fmt.Fprintf(w, "  link: drops=%g reorders=%g duplicates=%g ack-compressions=%g\n",
		s.Counters["drops.total"], reo, dup, ackc)
	if pol+shp+ho > 0 {
		fmt.Fprintf(w, "  contracts: policer-drops=%g shaper-delays=%g handovers=%g\n", pol, shp, ho)
	}
	line := fmt.Sprintf("  loss signal: rack-marks=%g spurious-retx=%g", rack, spur)
	if retx := s.Counters["retransmits"]; retx > 0 {
		line += fmt.Sprintf(" (%.1f%% of %g retransmits wasted)", 100*spur/retx, retx)
	}
	fmt.Fprintln(w, line)
}

// printSessions renders the churn-workload breakdown: the session ledger
// (accepted vs shed vs retried and how accepted sessions resolved), the
// connection high-water mark, and session flow-completion-time percentiles.
// Omitted entirely when the run carried no session workload.
func printSessions(w io.Writer, s *obs.Snapshot) {
	acc := s.Counters["sessions.accepted"]
	rej := s.Counters["sessions.rejected"]
	ret := s.Counters["sessions.retried"]
	done := s.Counters["sessions.completed"]
	abrt := s.Counters["sessions.aborted"]
	if acc+rej+ret+done+abrt == 0 {
		return
	}
	fmt.Fprintln(w, "sessions:")
	fmt.Fprintf(w, "  ledger: accepted=%g rejected=%g retried=%g completed=%g aborted=%g active-end=%g\n",
		acc, rej, ret, done, abrt, acc-done-abrt)
	if peak := s.Gauges["conns.active_peak"]; peak > 0 {
		fmt.Fprintf(w, "  conns: active=%g peak=%g\n", s.Gauges["conns.active"], peak)
	}
	if h, ok := s.Histograms["session_fct_seconds"]; ok && h.Count > 0 {
		fmt.Fprintf(w, "  fct: count=%d p50=%.4gs p99=%.4gs p999=%.4gs\n",
			h.Count, h.P50, h.P99, h.P999)
	}
}

func printSnapshot(w io.Writer, s *obs.Snapshot) {
	fmt.Fprintln(w, "counters:")
	for _, name := range s.SortedCounterNames() {
		fmt.Fprintf(w, "  %-24s %g\n", name, s.Counters[name])
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range s.SortedGaugeNames() {
			fmt.Fprintf(w, "  %-24s %g\n", name, s.Gauges[name])
		}
	}
	fmt.Fprintln(w, "histograms:")
	for _, name := range s.SortedHistogramNames() {
		h := s.Histograms[name]
		fmt.Fprintf(w, "  %-24s count=%d min=%g mean=%g p50=%g p90=%g p99=%g p999=%g max=%g\n",
			name, h.Count, h.Min, h.Mean, h.P50, h.P90, h.P99, h.P999, h.Max)
	}
}

func selNote(sel int) string {
	if sel < 0 {
		return ""
	}
	return fmt.Sprintf(" in run %d", sel)
}

// ---- filter ----

func cmdFilter(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("filter", flag.ContinueOnError)
	runSel := fs.Int("run", -1, "keep only this run (0-based; -1 = every run)")
	kind := fs.String("kind", "", "keep only this event kind (e.g. drop, rate-change)")
	flow := fs.String("flow", "", "keep only this flow")
	link := fs.String("link", "", "keep only this link")
	sf := fs.Int("sf", -2, "keep only this subflow index")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	var wantKind obs.Kind
	haveKind := false
	if *kind != "" {
		var ok bool
		if wantKind, ok = obs.KindFromString(*kind); !ok {
			return usagef("unknown kind %q", *kind)
		}
		haveKind = true
	}
	in, done, err := openInput(fs, stdin)
	if err != nil {
		return err
	}
	defer done()

	var buf []byte
	matched := 0
	_, err = forEachRun(in, *runSel, func(_ int, e obs.Event) error {
		if haveKind && e.Kind != wantKind {
			return nil
		}
		if *flow != "" && e.Flow != *flow {
			return nil
		}
		if *link != "" && e.Link != *link {
			return nil
		}
		if *sf != -2 && int(e.Subflow) != *sf {
			return nil
		}
		matched++
		buf = obs.AppendEvent(buf[:0], e)
		_, werr := stdout.Write(buf)
		return werr
	})
	if err != nil {
		return err
	}
	if matched == 0 {
		return fmt.Errorf("no events matched%s", selNote(*runSel))
	}
	return nil
}

// ---- csv ----

// levelKind reports whether the kind's natural per-bucket aggregate is the
// mean of a level (rates, utilities, RTOs, queue depths) rather than a sum
// of bytes.
func levelKind(k obs.Kind) bool {
	switch k {
	case obs.KindMIDecision, obs.KindUtility, obs.KindRateChange,
		obs.KindRTOBackoff, obs.KindQueueDepth:
		return true
	}
	return false
}

func eventValue(e obs.Event) float64 {
	switch e.Kind {
	case obs.KindMIDecision, obs.KindUtility, obs.KindRateChange, obs.KindRTOBackoff:
		return e.Value
	}
	return float64(e.Bytes)
}

func seriesKey(e obs.Event) string {
	if e.Link != "" {
		return e.Link
	}
	if e.Subflow >= 0 {
		return fmt.Sprintf("%s/sf%d", e.Flow, e.Subflow)
	}
	return e.Flow
}

// ---- timeline ----

func cmdTimeline(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	runSel := fs.Int("run", 0, "run to render (0-based)")
	window := fs.Duration("window", 0, "series window width when replaying an event trace (0 = the registry default)")
	csv := fs.Bool("csv", false, "emit plain CSV instead of aligned columns")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *runSel < 0 {
		return usagef("timeline: -run must name a single run")
	}
	in, done, err := openInput(fs, stdin)
	if err != nil {
		return err
	}
	defer done()
	data, err := io.ReadAll(in)
	if err != nil {
		return err
	}

	if first := firstLine(data); obs.IsTimelineLine(first) {
		// Timeline-dump input: one AppendTimeline line per run.
		if *window != 0 {
			return usagef("timeline: -window only applies to event-trace input; dumps carry their own window")
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			idx, series, err := obs.ParseTimeline(line)
			if err != nil {
				return fmt.Errorf("timeline: %v", err)
			}
			if idx == *runSel {
				return obs.RenderTimeline(stdout, series, *csv)
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("timeline: no dump for run %d", *runSel)
	}

	// Event-trace input: replay the selected run through a fresh registry so
	// the rendered series are identical to what the live run snapshotted.
	reg := obs.NewRegistry()
	if *window > 0 {
		reg.SetSeriesWindow(sim.FromDuration(*window))
	}
	events := 0
	if _, err := forEachRun(bytes.NewReader(data), *runSel, func(_ int, e obs.Event) error {
		events++
		reg.Record(e)
		return nil
	}); err != nil {
		return err
	}
	if events == 0 {
		return fmt.Errorf("no events%s", selNote(*runSel))
	}
	series := reg.Snapshot().Series
	if len(series) == 0 {
		return fmt.Errorf("run %d has no series-bearing events (rate-change, rtt-sample, queue-depth)", *runSel)
	}
	return obs.RenderTimeline(stdout, series, *csv)
}

// firstLine returns the first non-empty line of data (without its newline).
func firstLine(data []byte) []byte {
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		var line []byte
		if i < 0 {
			line, data = data, nil
		} else {
			line, data = data[:i], data[i+1:]
		}
		if line = bytes.TrimSpace(line); len(line) > 0 {
			return line
		}
	}
	return nil
}

func cmdCSV(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("csv", flag.ContinueOnError)
	runSel := fs.Int("run", 0, "run to export (0-based)")
	kind := fs.String("kind", "", "event kind to export (required; e.g. rate-change, queue-depth)")
	bucket := fs.Duration("bucket", stats.DefaultBucket.Duration(), "time-bucket width")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *kind == "" {
		return usagef("csv: -kind is required")
	}
	wantKind, ok := obs.KindFromString(*kind)
	if !ok {
		return usagef("unknown kind %q", *kind)
	}
	if *runSel < 0 {
		return usagef("csv: -run must name a single run")
	}
	if *bucket <= 0 {
		return usagef("csv: -bucket must be positive")
	}
	in, done, err := openInput(fs, stdin)
	if err != nil {
		return err
	}
	defer done()

	bw := sim.FromDuration(*bucket)
	series := map[string]*stats.Series{}
	windows := 0
	_, err = forEachRun(in, *runSel, func(_ int, e obs.Event) error {
		if e.Kind != wantKind {
			return nil
		}
		key := seriesKey(e)
		sr := series[key]
		if sr == nil {
			sr = stats.NewSeries(0, bw)
			series[key] = sr
		}
		sr.Add(e.At, eventValue(e))
		windows = max(windows, sr.Len())
		return nil
	})
	if err != nil {
		return err
	}
	if len(series) == 0 {
		return fmt.Errorf("no %s events%s", wantKind, selNote(*runSel))
	}
	// Export every series over every bucket with one sample per bucket, its
	// exported value (the mean for a level kind, else the sum), so
	// RenderTimeline prints that value and an empty bucket reads 0.
	mean := levelKind(wantKind)
	for key, sr := range series {
		out := stats.NewSeries(0, bw)
		for b := 0; b < windows; b++ {
			v := sr.Bucket(b).Sum
			if m, ok := sr.Mean(b); ok && mean {
				v = m
			}
			out.Add(sim.Time(b)*bw, v)
		}
		series[key] = out
	}
	return obs.RenderTimeline(stdout, series, true)
}
