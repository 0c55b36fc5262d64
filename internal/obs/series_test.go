package obs

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"mpcc/internal/sim"
	"mpcc/internal/stats"
)

// seriesBus returns a bus+registry pair for series tests.
func seriesBus() (*Bus, *Registry) {
	reg := NewRegistry()
	b := NewBus()
	b.SetRegistry(reg)
	return b, reg
}

func TestSeriesFoldsWindows(t *testing.T) {
	b, reg := seriesBus()
	// Two rate changes in window 0, one in window 3; RTT samples on another
	// subflow; queue depths on a link.
	b.RateChange(10*sim.Millisecond, "mp", 0, 10e6)
	b.RateChange(90*sim.Millisecond, "mp", 0, 20e6)
	b.RateChange(350*sim.Millisecond, "mp", 0, 40e6)
	b.RTTSample(120*sim.Millisecond, "mp", 1, 30*sim.Millisecond)
	b.QueueDepth(250*sim.Millisecond, "link1", 4500)

	s := reg.Snapshot()
	rate := s.Series["rate_bps mp/sf0"]
	if rate == nil {
		t.Fatalf("missing rate series; have %v", SortedSeriesKeys(s.Series))
	}
	if rate.BucketWidth() != stats.DefaultBucket {
		t.Errorf("window = %v", rate.BucketWidth())
	}
	if got, ok := rate.Mean(0); !ok || got != 15e6 {
		t.Errorf("window 0 mean = %v (ok=%v), want 15e6", got, ok)
	}
	if _, ok := rate.Mean(1); ok {
		t.Error("empty window reported a mean")
	}
	if got, ok := rate.Mean(3); !ok || got != 40e6 {
		t.Errorf("window 3 mean = %v (ok=%v), want 40e6", got, ok)
	}
	if rtt := s.Series["rtt_s mp/sf1"]; rtt == nil {
		t.Error("missing rtt series")
	} else if got, ok := rtt.Mean(1); !ok || got != 0.03 {
		t.Errorf("rtt window 1 = %v (ok=%v), want 0.03", got, ok)
	}
	if qd := s.Series["queue_bytes link1"]; qd == nil {
		t.Error("missing queue series")
	} else if got, ok := qd.Mean(2); !ok || got != 4500 {
		t.Errorf("queue window 2 = %v (ok=%v), want 4500", got, ok)
	}
}

func TestSeriesCardinalityGuard(t *testing.T) {
	b, reg := seriesBus()
	for i := 0; i < maxSeriesPerKind+8; i++ {
		b.RateChange(sim.Millisecond, fmt.Sprintf("flow%03d", i), 0, 1e6)
	}
	s := reg.Snapshot()
	nRate := 0
	for key := range s.Series {
		if strings.HasPrefix(key, "rate_bps ") {
			nRate++
		}
	}
	if nRate != maxSeriesPerKind {
		t.Errorf("%d rate series, want cap %d", nRate, maxSeriesPerKind)
	}
	if got := s.Counters["series.dropped"]; got != 8 {
		t.Errorf("series.dropped = %v, want 8", got)
	}
	// Existing labels keep accumulating after the cap trips.
	b.RateChange(2*sim.Millisecond, "flow000", 0, 3e6)
	if got := reg.Snapshot().Series["rate_bps flow000/sf0"].Bucket(0).Count; got != 2 {
		t.Errorf("existing series stopped accumulating: count %d", got)
	}

	// Far more labels than the front cache has ways for, live and over-cap
	// interleaved: every live label still lands in its own series, every
	// over-cap sample is counted and nothing else, and none of it allocates.
	const over, rounds = 100, 5
	names := make([]string, maxSeriesPerKind+over)
	for i := range names {
		names[i] = fmt.Sprintf("flow%03d", i)
	}
	sweep := func() {
		for i, name := range names {
			b.RateChange(3*sim.Millisecond, name, 0, float64(i))
		}
	}
	sweep()
	if allocs := testing.AllocsPerRun(rounds-1, sweep); allocs != 0 {
		t.Errorf("a sweep over %d labels allocated %.0f times, want 0", len(names), allocs)
	}
	s = reg.Snapshot()
	if got, want := s.Counters["series.dropped"], float64(8+(rounds+1)*over); got != want {
		t.Errorf("series.dropped = %v, want %v", got, want)
	}
	if len(s.Series) != maxSeriesPerKind {
		t.Errorf("%d series after the sweeps, want %d", len(s.Series), maxSeriesPerKind)
	}
	for i, name := range names[:maxSeriesPerKind] {
		sd := s.Series["rate_bps "+name+"/sf0"]
		wantCount, wantSum := int64(1+rounds+1), 1e6+float64((rounds+1)*i)
		if i == 0 {
			wantCount, wantSum = wantCount+1, wantSum+3e6
		}
		if sd == nil || sd.Bucket(0) != (stats.Bucket{Sum: wantSum, Count: wantCount}) {
			t.Fatalf("series %s = %+v, want count %d sum %v", name, sd, wantCount, wantSum)
		}
	}
}

func TestSeriesObserveAllocFree(t *testing.T) {
	b, reg := seriesBus()
	// Warm: create the series and its first windows.
	b.RateChange(0, "mp", 0, 1e6)
	b.QueueDepth(0, "link1", 100)
	b.RTTSample(0, "mp", 0, sim.Millisecond)
	at := sim.Time(0)
	if allocs := testing.AllocsPerRun(2000, func() {
		at += 20 * sim.Microsecond // stays far inside preallocated windows
		b.RateChange(at, "mp", 0, 2e6)
		b.QueueDepth(at, "link1", 200)
		b.RTTSample(at, "mp", 0, sim.Millisecond)
	}); allocs != 0 {
		t.Errorf("warm series observation allocated %.2f allocs/op, want 0", allocs)
	}

	// Thirty live labels of one kind cannot all sit in the front cache's
	// four-way sets at once with certainty; whichever path resolves a label
	// — a front hit, or the map and a re-claimed front slot — allocates nothing.
	flows := make([]string, 15)
	for i := range flows {
		flows[i] = fmt.Sprintf("f%02d", i)
		b.RTTSample(0, flows[i], 0, sim.Millisecond)
		b.RTTSample(0, flows[i], 1, sim.Millisecond)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		at += 20 * sim.Microsecond
		for _, f := range flows {
			b.RTTSample(at, f, 0, sim.Millisecond)
			b.RTTSample(at, f, 1, sim.Millisecond)
		}
	}); allocs != 0 {
		t.Errorf("warm observation of %d labels allocated %.2f allocs/op, want 0", 2*len(flows), allocs)
	}
	if got := reg.Snapshot().Counters["series.dropped"]; got != 0 {
		t.Errorf("series.dropped = %v with every label under the guard", got)
	}
}

func TestSetSeriesWindow(t *testing.T) {
	reg := NewRegistry()
	reg.SetSeriesWindow(sim.Second)
	b := NewBus()
	b.SetRegistry(reg)
	b.RateChange(2500*sim.Millisecond, "mp", 0, 1e6)
	sd := reg.Snapshot().Series["rate_bps mp/sf0"]
	if sd.BucketWidth() != sim.Second || sd.Len() != 3 {
		t.Errorf("window %v with %d windows, want 1s x 3", sd.BucketWidth(), sd.Len())
	}
}

func TestTimelineDumpRoundTripAndRender(t *testing.T) {
	b, reg := seriesBus()
	b.RateChange(10*sim.Millisecond, "mp", 0, 10e6)
	b.RateChange(250*sim.Millisecond, "mp", 1, 20e6)
	b.QueueDepth(150*sim.Millisecond, "link1", 3000)
	snap := reg.Snapshot()

	line := AppendTimeline(nil, 3, snap.Series)
	if !IsTimelineLine(bytes.TrimSpace(line)) {
		t.Fatalf("timeline line not recognized: %s", line)
	}
	if IsTimelineLine([]byte(`{"t":0,"kind":"run-end"}`)) {
		t.Fatal("event line misdetected as timeline")
	}
	// Byte stability.
	if again := AppendTimeline(nil, 3, snap.Series); !bytes.Equal(line, again) {
		t.Fatal("timeline dump not byte-stable")
	}
	runIdx, series, err := ParseTimeline(bytes.TrimSpace(line))
	if err != nil {
		t.Fatal(err)
	}
	if runIdx != 3 || len(series) != len(snap.Series) {
		t.Fatalf("round trip lost data: run=%d series=%d", runIdx, len(series))
	}
	for key, sd := range snap.Series {
		if got := series[key]; got == nil || !sameSeries(got, sd) {
			t.Errorf("series %q did not round-trip", key)
		}
	}
	// The queue series' first sample landed in window 1: the dump spells
	// out the empty window before it.
	if want := `{"key":"queue_bytes link1","sum":[0,3000],"count":[0,1]}`; !bytes.Contains(line, []byte(want)) {
		t.Errorf("dump lacks %s:\n%s", want, line)
	}

	var text bytes.Buffer
	if err := RenderTimeline(&text, series, false); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, frag := range []string{"t_seconds", "queue_bytes link1", "rate_bps mp/sf0", "rate_bps mp/sf1", "1e+07", "0.100"} {
		if !strings.Contains(out, frag) {
			t.Errorf("timeline text missing %q:\n%s", frag, out)
		}
	}
	var csv bytes.Buffer
	if err := RenderTimeline(&csv, series, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "t_seconds,queue_bytes link1,rate_bps mp/sf0,rate_bps mp/sf1" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != 1+3 { // windows 0..2
		t.Errorf("csv rows = %d, want 4:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[1], "0.000,,1e+07,") {
		t.Errorf("csv row 0 = %q", lines[1])
	}
}

// FuzzParseTimeline: ParseTimeline reads files from outside the program
// (mpcctrace timeline), so arbitrary bytes must never panic it, and every
// line it accepts must re-encode through AppendTimeline into a line that
// parses back to the same series.
func FuzzParseTimeline(f *testing.F) {
	b, reg := seriesBus()
	b.RateChange(10*sim.Millisecond, "mp", 0, 10e6)
	b.RTTSample(250*sim.Millisecond, "mp", 1, 30*sim.Millisecond)
	b.QueueDepth(150*sim.Millisecond, "link1", 3000)
	f.Add(bytes.TrimSpace(AppendTimeline(nil, 3, reg.Snapshot().Series)))
	f.Add([]byte(`{"run":1,"window_ns":0,"series":[]}`))
	f.Add([]byte(`{"run":0,"window_ns":250000,"series":[{"key":"aé","sum":[-0,1e-300,2.5],"count":[0,1,-3]}]}`))
	f.Add([]byte(`{"run":2,"window_ns":5,"series":[{"key":"x","sum":[1],"count":[1,2]}]}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		run, series, err := ParseTimeline(line)
		if err != nil {
			return
		}
		again := AppendTimeline(nil, run, series)
		run2, series2, err := ParseTimeline(bytes.TrimSpace(again))
		if err != nil {
			t.Fatalf("re-encoded line does not parse: %v\n%s", err, again)
		}
		if run2 != run || len(series2) != len(series) {
			t.Fatalf("run %d with %d series came back as run %d with %d", run, len(series), run2, len(series2))
		}
		for key, sr := range series {
			if got := series2[key]; got == nil || !sameSeries(got, sr) {
				t.Fatalf("series %q did not round-trip:\n%s", key, again)
			}
		}
	})
}

// The series store's two paths, for `go test -bench Series ./internal/obs`:
// the handful of labels an ordinary run samples over and over, and a churn
// run's stream of labels past the cardinality guard.

// oneSample returns a series holding vals as single-sample windows.
func oneSample(window sim.Time, vals ...float64) *stats.Series {
	b := make([]stats.Bucket, len(vals))
	for i, v := range vals {
		b[i] = stats.Bucket{Sum: v, Count: 1}
	}
	return stats.SeriesOf(window, b)
}

// sameSeries reports whether a and b read alike: width, span and every
// window's sum and count.
func sameSeries(a, b *stats.Series) bool {
	if a.BucketWidth() != b.BucketWidth() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Bucket(i) != b.Bucket(i) {
			return false
		}
	}
	return true
}

func renderCSV(t *testing.T, series map[string]*stats.Series) string {
	t.Helper()
	var b strings.Builder
	if err := RenderTimeline(&b, series, true); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRenderTimelineCSV pins the CSV shape: a t_seconds column then one per
// key in lexical order, and a blank cell past a shorter series' end.
func TestRenderTimelineCSV(t *testing.T) {
	got := renderCSV(t, map[string]*stats.Series{
		"y": oneSample(100*sim.Millisecond, 10, 20),
		"x": oneSample(100*sim.Millisecond, 1, 2, 3),
	})
	if want := "t_seconds,x,y\n0.000,1,10\n0.100,2,20\n0.200,3,\n"; got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
}

// TestRenderTimelineCSVEmpty: series without windows render the header
// alone, and no series at all is an error.
func TestRenderTimelineCSVEmpty(t *testing.T) {
	if got := renderCSV(t, map[string]*stats.Series{"x": oneSample(sim.Second)}); got != "t_seconds,x\n" {
		t.Errorf("windowless series = %q, want the header alone", got)
	}
	if err := RenderTimeline(new(strings.Builder), nil, true); err == nil {
		t.Error("no series rendered without an error")
	}
}

// TestRenderTimelineCSVRoundTrip: window starts read back exactly and
// values to the 6 significant digits they are printed with.
func TestRenderTimelineCSVRoundTrip(t *testing.T) {
	in := [][]float64{
		{1.5, -2.25, 3.141592653589793, 0},
		{1e9, 1e-9, 6.02214076e23, -273.15},
	}
	recs, err := csv.NewReader(strings.NewReader(renderCSV(t, map[string]*stats.Series{
		"a": oneSample(100*sim.Millisecond, in[0]...),
		"b": oneSample(100*sim.Millisecond, in[1]...),
	}))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+len(in[0]) {
		t.Fatalf("got %d records", len(recs))
	}
	for i, rec := range recs[1:] {
		if ts, err := strconv.ParseFloat(rec[0], 64); err != nil || ts != float64(i)/10 {
			t.Errorf("row %d: t=%q, want %v", i, rec[0], float64(i)/10)
		}
		for j := range in {
			got, err := strconv.ParseFloat(rec[j+1], 64)
			if want := in[j][i]; err != nil || math.Abs(got-want) > 1e-6*math.Abs(want) {
				t.Errorf("row %d col %d: %v came back as %q", i, j, want, rec[j+1])
			}
		}
	}
}

func TestTimelinePrecision(t *testing.T) {
	for _, c := range []struct {
		window sim.Time
		want   int
	}{
		{sim.Second, 3}, // never fewer than 3
		{100 * sim.Millisecond, 3},
		{sim.Millisecond, 3},
		{250 * sim.Microsecond, 5}, // sub-ms windows need more digits
		{sim.Microsecond, 6},
		{25 * sim.Nanosecond, 9},
		{0, 9}, // degenerate: full resolution
	} {
		if got := timelinePrecision(c.window); got != c.want {
			t.Errorf("timelinePrecision(%v) = %d, want %d", c.window, got, c.want)
		}
	}
}

// TestSubMillisecondBucketsStayDistinct: at a fixed 3 decimals, 250 µs
// windows would collapse onto repeated timestamps (0.000, 0.000, 0.000,
// 0.001, ...).
func TestSubMillisecondBucketsStayDistinct(t *testing.T) {
	got := renderCSV(t, map[string]*stats.Series{"v": oneSample(250*sim.Microsecond, 1, 2, 3, 4)})
	if want := "t_seconds,v\n0.00000,1\n0.00025,2\n0.00050,3\n0.00075,4\n"; got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
}

func BenchmarkSeriesObserveHot(b *testing.B) {
	s := newSeriesStore(stats.DefaultBucket, &Counter{})
	ids := []seriesID{{seriesRTT, "mp", 0}, {seriesRTT, "mp", 1}, {seriesRTT, "sp", 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.observe(ids[i%len(ids)], sim.Time(i)*sim.Microsecond, 0.03)
	}
}

func BenchmarkSeriesObserveOverCap(b *testing.B) {
	s := newSeriesStore(stats.DefaultBucket, &Counter{})
	ids := make([]seriesID, maxSeriesPerKind+1000)
	for i := range ids {
		ids[i] = seriesID{seriesRTT, fmt.Sprintf("s%06d", i), int32(i & 1)}
		s.observe(ids[i], 0, 0.03)
	}
	ids = ids[maxSeriesPerKind:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.observe(ids[i%len(ids)], sim.Time(i)*sim.Microsecond, 0.03)
	}
}
