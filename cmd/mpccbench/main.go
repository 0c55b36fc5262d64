// Command mpccbench regenerates the paper's tables and figures, plus the
// extension experiments (e.g. -exp faults for the fault-recovery study).
//
// Usage:
//
//	mpccbench -list
//	mpccbench -exp fig5a [-dur 20s] [-warmup 8s] [-reps 3] [-seed 42] [-full]
//	mpccbench -exp all
//	mpccbench -exp fig5a -trace fig5a.jsonl   # JSONL probe trace (forces -workers 1)
//	mpccbench -exp fig5a -timeline fig5a.tl.jsonl   # windowed series dump per run (mpcctrace timeline)
//	mpccbench -exp fig5a -flightrec fig5a.fr.jsonl  # last ring of probe events across the sweep
//	mpccbench -exp fig14 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"mpcc/internal/exp"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made explicit, so
// tests can drive it: 0 on success, 1 when a file cannot be created or
// written, 2 on a bad flag or an unknown experiment.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list available experiments")
		id      = fs.String("exp", "", "experiment id (or \"all\")")
		dur     = fs.Duration("dur", 20*time.Second, "virtual run duration")
		warmup  = fs.Duration("warmup", 8*time.Second, "warmup omitted from averages")
		reps    = fs.Int("reps", 1, "replicates per cell, at seeds seed+1000·r; above 1 a sweep cell reads their mean [min..max]")
		seed    = fs.Int64("seed", 42, "base random seed")
		full    = fs.Bool("full", false, "paper-scale sweeps (576-config grids, 75 MB downloads)")
		csvdir  = fs.String("csvdir", "", "also write each table as CSV into this directory")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations per sweep (1 = sequential); output is identical for any value")
		tracef  = fs.String("trace", "", "write a JSONL probe trace of every simulation to this file (forces -workers 1 for run-order reproducibility)")
		timelf  = fs.String("timeline", "", "write each run's windowed series as a timeline-dump line to this file (mpcctrace timeline reads it; forces -workers 1)")
		flrecf  = fs.String("flightrec", "", "write the flight recorder — the last ~4k probe events across all runs — to this file on exit (forces -workers 1)")
		cpuprof = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Values that would make every table meaningless (NaN or all-zero cells)
	// are refused instead of run.
	var bad string
	switch {
	case *reps < 1:
		bad = fmt.Sprintf("-reps %d: need at least 1 repetition", *reps)
	case *dur <= 0:
		bad = fmt.Sprintf("-dur %v: need a positive duration", *dur)
	case *warmup >= *dur:
		bad = fmt.Sprintf("-warmup %v leaves nothing of -dur %v to measure", *warmup, *dur)
	case *workers < 1:
		bad = fmt.Sprintf("-workers %d: need at least 1 worker", *workers)
	}
	if bad != "" {
		fmt.Fprintln(stderr, bad)
		return 2
	}
	exp.SetWorkers(*workers)

	// fail reports a file that could not be created or written; the caller
	// returns 1.
	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", what, err)
		return 1
	}

	// Every output file and directory is opened before the first
	// simulation, so a bad path costs nothing.
	if *csvdir != "" {
		if err := os.MkdirAll(*csvdir, 0o755); err != nil {
			return fail("csv", err)
		}
	}

	// The observability taps share one wiring pattern: sinks shared by all
	// runs, a fresh bus+registry per run, run-start/run-end markers segmenting
	// the stream. The sinks take no locks (one writer per goroutine) and a
	// trace is reproducible only in a fixed run order, so any tap forces
	// sequential execution.
	var sharedSinks []obs.Sink
	if *tracef != "" {
		f, err := os.Create(*tracef)
		if err != nil {
			return fail("trace", err)
		}
		jw := obs.NewJSONLWriter(f)
		defer jw.Close()
		sharedSinks = append(sharedSinks, jw)
	}
	if *flrecf != "" {
		f, err := os.Create(*flrecf)
		if err != nil {
			return fail("flightrec", err)
		}
		fr := obs.NewFlightRecorder(obs.DefaultFlightRecorderSize)
		sharedSinks = append(sharedSinks, fr)
		defer func() {
			if err := fr.WriteJSONL(f); err != nil {
				fail("flightrec", err)
			}
			f.Close()
		}()
	}
	var timelineErr error
	var writeTimeline func(r *obs.Registry) // set by -timeline
	if *timelf != "" {
		f, err := os.Create(*timelf)
		if err != nil {
			return fail("timeline", err)
		}
		defer f.Close()
		runIdx := 0
		var buf []byte
		writeTimeline = func(r *obs.Registry) {
			buf = obs.AppendTimeline(buf[:0], runIdx, r.Snapshot().Series)
			runIdx++
			if timelineErr == nil {
				_, timelineErr = f.Write(buf)
			}
		}
	}
	if len(sharedSinks) > 0 || writeTimeline != nil {
		exp.SetProbeFactory(func() *obs.Bus {
			// A copy, so AddSink never appends into sharedSinks.
			b := obs.NewBus(append([]obs.Sink(nil), sharedSinks...)...)
			if writeTimeline != nil {
				// The run's windowed series, as one line, at its run-end
				// marker.
				reg := obs.NewRegistry()
				b.SetRegistry(reg)
				b.AddSink(obs.SinkFunc(func(e obs.Event) {
					if e.Kind == obs.KindRunEnd {
						writeTimeline(reg)
					}
				}))
			}
			return b
		})
		defer exp.SetProbeFactory(nil)
		exp.SetWorkers(1)
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fail("cpuprofile", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("cpuprofile", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fail("memprofile", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail("memprofile", err)
			}
		}()
	}

	if *list || *id == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range exp.Registry() {
			fmt.Fprintf(stdout, "  %-22s %s\n", e.ID, e.Desc)
		}
		if !*list {
			return 2
		}
		return 0
	}

	cfg := exp.Config{
		Duration: sim.FromDuration(*dur),
		Warmup:   sim.FromDuration(*warmup),
		Reps:     *reps,
		Seed:     *seed,
		Full:     *full,
	}

	ran := false
	for _, e := range exp.Registry() {
		if *id != "all" && *id != e.ID {
			continue
		}
		ran = true
		start := time.Now()
		simsBefore := exp.SimsRun()
		for i, t := range e.Run(cfg) {
			t.Fprint(stdout)
			fmt.Fprintln(stdout)
			if *csvdir != "" {
				name := filepath.Join(*csvdir, fmt.Sprintf("%s_%d.csv", e.ID, i))
				if err := writeCSV(name, t); err != nil {
					return fail("csv", err)
				}
			}
		}
		if timelineErr != nil {
			return fail("timeline", timelineErr)
		}
		wall := time.Since(start).Seconds()
		sims := exp.SimsRun() - simsBefore
		rate := 0.0
		if wall > 0 {
			rate = float64(sims) / wall
		}
		fmt.Fprintf(stdout, "[%s: %.1fs wall, %d sims, %.1f sims/s, %d workers]\n\n",
			e.ID, wall, sims, rate, exp.Workers())
	}
	if !ran {
		fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", *id)
		return 2
	}
	return 0
}

// writeCSV writes one table to a fresh file, reporting the first failure of
// create, write or close.
func writeCSV(name string, t *exp.Table) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
