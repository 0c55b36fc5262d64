// Command benchmark is the repository's benchmark: five simulator workloads
// timed from outside, a per-layer cost model from drivers over the layers'
// public APIs, and the checks that the simulated outcome did not change.
// See README.md in this directory.
//
//	go run ./benchmark --workload bulk_mpcc --seed 1 --seconds 10 --trace 0
//	go run ./benchmark                       # every workload, both passes
//	go run ./benchmark -out a.json           # ... and keep the report
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -manifest             # prints BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// span is one timed call the benchmark made. Spans stay in memory and are
// written with the report.
type span struct {
	Name    string  `json:"name"`
	StartS  float64 `json:"start_s"`
	EndS    float64 `json:"end_s"`
	Parent  int     `json:"parent"` // index into the span list, -1 for a root
	IterKey int64   `json:"iteration"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int, iter int64) int {
	t.spans = append(t.spans, span{Name: name, StartS: time.Since(t.t0).Seconds(), Parent: parent, IterKey: iter})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].EndS = time.Since(t.t0).Seconds() }

type runMeta struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
}

// report is what -out writes and -compare reads.
type report struct {
	Meta      runMeta                    `json:"meta"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Spans     []span                     `json:"spans,omitempty"`
}

// gitRev names the commit when the working directory is the root of a git
// checkout; elsewhere git is not asked, so it never searches parent
// directories.
func gitRev() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		workload    = flag.String("workload", "", "run one workload ("+workloadNames()+") and print one JSON result line; default: all of them, as a table")
		seed        = flag.Int64("seed", 1, "workload seed; iteration i runs at seed*1000+i")
		seconds     = flag.Float64("seconds", runSeconds, "how long to time iterations for, per workload")
		trace       = flag.Int("trace", 0, "with -workload: 0 times the end-to-end metrics, 1 runs the layer drivers and the traced run")
		quick       = flag.Bool("quick", false, "test size: one iteration, 2 virtual s, 4096 driver units")
		out         = flag.String("out", "", "write the report, spans included, to this file")
		compare     = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
		manifestOut = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifestOut {
		os.Stdout.Write(manifest())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		ok, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// One core: the simulation thread and the collector share it, so a number
	// does not depend on whether the host lends a second core at that moment
	// (README, "Run shape"). Only the shard speed-up of the traced pass asks
	// for more.
	runtime.GOMAXPROCS(1)
	sz, setups, untraced := fullSize, 3, 3
	if *quick {
		sz, setups, untraced, *seconds = quickSize, 1, 1, 0
	}
	rep := &report{
		Meta: runMeta{GitRev: gitRev(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds, Quick: *quick},
		Workloads: map[string]*workloadReport{},
	}
	tr := &tracer{t0: time.Now()}

	var err error
	if *workload != "" {
		err = runOne(tr, rep, *workload, sz, *trace == 1, setups, untraced)
	} else {
		err = runAll(tr, rep, sz, setups, untraced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rep.Spans = tr.spans
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	for _, w := range rep.Workloads {
		if w.Failed > 0 {
			os.Exit(1)
		}
	}
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runOne is the harness entry: one workload, one pass, and as the last line
// of standard output one JSON object with the pass's metrics.
func runOne(tr *tracer, rep *report, name string, sz sizes, traced bool, setups, untraced int) error {
	if workloadLegs(name, sz) == nil {
		return fmt.Errorf("unknown workload %q; have %s", name, workloadNames())
	}
	var (
		w   *workloadReport
		err error
	)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	if traced {
		w, err = traceWorkload(tr, name, sz, rep.Meta.Seed, untraced, func() map[string]float64 { return unitCosts(tr, sz) })
		if err != nil {
			return err
		}
		for _, d := range perLayerDefs() {
			vals[d.Name] = value{w.PerLayer[d.Name], d.Unit}
		}
	} else {
		w, err = timeWorkload(tr, name, sz, rep.Meta.Seed, rep.Meta.Seconds, setups)
		if err != nil {
			return err
		}
		for _, d := range endToEndDefs {
			vals[d.Name] = value{w.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	rep.Workloads[name] = w
	printMeta(rep.Meta)
	fmt.Printf("%s: %d iterations, sim_digest %s\n", name, w.Iterations, w.Digest)
	for _, f := range w.Failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Failed == 0, w.Attempted, w.Failed, vals})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll times every workload, then runs the layer drivers once and every
// workload's traced run, and prints every metric by name.
func runAll(tr *tracer, rep *report, sz sizes, setups, untraced int) error {
	printMeta(rep.Meta)
	for _, wd := range workloadDefs {
		w, err := timeWorkload(tr, wd.Name, sz, rep.Meta.Seed, rep.Meta.Seconds, setups)
		if err != nil {
			return err
		}
		rep.Workloads[wd.Name] = w
		fmt.Printf("\n%s: %d iterations, %d operations, %d failed, sim_digest %s\n",
			wd.Name, w.Iterations, w.Attempted, w.Failed, w.Digest)
		for _, f := range w.Failures {
			fmt.Println("  FAILED:", f)
		}
		fmt.Printf("  %-22s %-6s %-7s %-6s %14s %14s %14s %3s\n", "metric", "unit", "better", "bound", "median", "q1", "q3", "n")
		for _, d := range endToEndDefs {
			s := w.EndToEnd[d.Name]
			fmt.Printf("  %-22s %-6s %-7s %-6.2f %14.6g %14.6g %14.6g %3d\n", d.Name, d.Unit, d.Better, d.Bound, s.Median, s.Q1, s.Q3, s.N)
		}
	}

	costs := unitCosts(tr, sz)
	for _, wd := range workloadDefs {
		t, err := traceWorkload(tr, wd.Name, sz, rep.Meta.Seed, untraced, func() map[string]float64 { return costs })
		if err != nil {
			return err
		}
		w := rep.Workloads[wd.Name]
		w.PerLayer = t.PerLayer
		w.Failed += t.Failed
		w.Failures = append(w.Failures, t.Failures...)
		if t.Digest != w.Digest {
			w.fail("traced pass: digest %s differs from the timed pass's %s", t.Digest, w.Digest)
		}
		for _, f := range t.Failures {
			fmt.Printf("\n%s traced pass FAILED: %s\n", wd.Name, f)
		}
	}
	fmt.Printf("\nper-layer metrics (traced pass, seed %d)\n  %-28s %-6s %-7s", baseSeed(rep.Meta.Seed), "metric", "unit", "better")
	for _, wd := range workloadDefs {
		fmt.Printf(" %16s", wd.Name)
	}
	fmt.Println()
	for _, d := range perLayerDefs() {
		fmt.Printf("  %-28s %-6s %-7s", d.Name, d.Unit, d.Better)
		for _, wd := range workloadDefs {
			fmt.Printf(" %16.6g", rep.Workloads[wd.Name].PerLayer[d.Name])
		}
		fmt.Println()
	}
	return nil
}

func printMeta(m runMeta) {
	fmt.Printf("benchmark: git %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %.0f s per workload, quick=%v\n",
		m.GitRev, m.GoVersion, m.NumCPU, m.GoMaxProcs, m.Seed, m.Seconds, m.Quick)
}

// ---- compare ----

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how much worse b reads than a, as a share of a.
func worsening(d metricDef, a, b float64) float64 {
	w := (b - a) / a
	if d.Better == "higher" {
		w = -w
	}
	return w
}

// verdict classifies b against a for one metric of one workload. Paired
// reports ran the same seeds, so iteration i did the same work in both and the
// two are compared iteration by iteration: the verdict rests on the median of
// the per-iteration worsenings, and their quartiles are the spread. Unpaired
// reports compare medians, and the spread is the wider of the two sides'
// quartile distances. A spread beyond the bound leaves the pair unresolved,
// unless b read better every time.
func verdict(d metricDef, a, b summary, paired bool) (worse float64, v string) {
	if a.Median == 0 {
		return 0, "unresolved"
	}
	var spread float64
	better := true
	if n := min(len(a.Samples), len(b.Samples)); paired && n > 1 {
		w := make([]float64, n)
		for i := range w {
			w[i] = worsening(d, a.Samples[i], b.Samples[i])
			better = better && w[i] < 0
		}
		q1, med, q3 := quartiles(w)
		worse, spread = med, q3-q1
	} else {
		worse = worsening(d, a.Median, b.Median)
		spread = max((a.Q3-a.Q1)/a.Median, (b.Q3-b.Q1)/b.Median)
		for _, x := range a.Samples {
			for _, y := range b.Samples {
				better = better && worsening(d, x, y) < 0
			}
		}
		better = better && len(a.Samples) > 0 && len(b.Samples) > 0
	}
	switch {
	case spread > d.Bound && !better:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "regressed"
	}
	return worse, "within-bound"
}

// compareReports prints one row per workload × end-to-end metric and reports
// whether nothing regressed and the simulated outcomes are identical.
func compareReports(w *os.File, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s (git %s, seed %d)\nb = %s (git %s, seed %d)\n", pathA, a.Meta.GitRev, a.Meta.Seed, pathB, b.Meta.GitRev, b.Meta.Seed)
	fmt.Fprintf(w, "%-18s %-20s %13s %13s %16s %6s  %s\n", "workload", "metric", "a median", "b median", "b/a (base a)", "bound", "verdict")
	ok := true
	paired := a.Meta.Seed == b.Meta.Seed && a.Meta.Quick == b.Meta.Quick
	for _, wd := range workloadDefs {
		wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEndDefs {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			_, v := verdict(d, sa, sb, paired)
			if v == "regressed" {
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-20s %13.6g %13.6g %16.4f %6.2f  %s\n", wd.Name, d.Name, sa.Median, sb.Median, ratio(sb.Median, sa.Median), d.Bound, v)
		}
		// Counts and digests compare exactly, and only at the same seed.
		if !paired {
			continue
		}
		if wa.Digest != wb.Digest {
			ok = false
			fmt.Fprintf(w, "%-18s sim_digest differs: %s vs %s\n", wd.Name, wa.Digest, wb.Digest)
		}
		for _, k := range []string{"sim.events", "netem.pkts", "netem.drops", "transport.segs_sent", "transport.sessions", "cc.acks", "cc.mis", "obs.events"} {
			if va, vb := wa.PerLayer[k], wb.PerLayer[k]; va != vb {
				ok = false
				fmt.Fprintf(w, "%-18s %s differs: %.0f vs %.0f\n", wd.Name, k, va, vb)
			}
		}
	}
	return ok, nil
}
