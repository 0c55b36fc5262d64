package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"mpcc/internal/sim"
	"mpcc/internal/stats"
)

// Timeline dump format: one JSON object per run holding that run's windowed
// series — the compact "trajectories without a trace" artifact mpccbench
// -timeline writes and mpcctrace timeline renders. Like the event JSONL,
// lines are byte-stable: keys sorted, integer window width, shortest
// round-trip floats.

// timelineMagic distinguishes a timeline dump line from an event-trace line
// (both are JSONL; events never carry a "window_ns" key).
const timelineMagic = `"window_ns"`

// AppendTimeline appends one run's timeline dump line (newline included).
func AppendTimeline(b []byte, runIdx int, series map[string]*stats.Series) []byte {
	b = append(b, `{"run":`...)
	b = strconv.AppendInt(b, int64(runIdx), 10)
	b = append(b, `,"window_ns":`...)
	var window sim.Time
	for _, sr := range series {
		window = sr.BucketWidth()
		break
	}
	b = strconv.AppendInt(b, int64(window), 10)
	b = append(b, `,"series":[`...)
	for i, key := range SortedSeriesKeys(series) {
		if i > 0 {
			b = append(b, ',')
		}
		sr := series[key]
		b = append(b, `{"key":`...)
		b = appendJSONString(b, key)
		b = append(b, `,"sum":[`...)
		for j := 0; j < sr.Len(); j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, sr.Bucket(j).Sum, 'g', -1, 64)
		}
		b = append(b, `],"count":[`...)
		for j := 0; j < sr.Len(); j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, sr.Bucket(j).Count, 10)
		}
		b = append(b, `]}`...)
	}
	return append(b, ']', '}', '\n')
}

// timelineLine is the wire form of one dump line.
type timelineLine struct {
	Run      int   `json:"run"`
	WindowNs int64 `json:"window_ns"`
	Series   []struct {
		Key   string    `json:"key"`
		Sum   []float64 `json:"sum"`
		Count []int64   `json:"count"`
	} `json:"series"`
}

// ParseTimeline decodes one timeline dump line. A line without series may
// carry no window (AppendTimeline has none to write for a run that folded no
// samples); one with series must.
func ParseTimeline(line []byte) (runIdx int, series map[string]*stats.Series, err error) {
	var tl timelineLine
	if err := json.Unmarshal(line, &tl); err != nil {
		return 0, nil, err
	}
	if tl.WindowNs < 0 || tl.WindowNs == 0 && len(tl.Series) > 0 {
		return 0, nil, fmt.Errorf("obs: timeline line has no window_ns")
	}
	series = make(map[string]*stats.Series, len(tl.Series))
	for _, s := range tl.Series {
		if len(s.Sum) != len(s.Count) {
			return 0, nil, fmt.Errorf("obs: timeline series %q: %d sums vs %d counts", s.Key, len(s.Sum), len(s.Count))
		}
		b := make([]stats.Bucket, len(s.Sum))
		for i := range b {
			b[i] = stats.Bucket{Sum: s.Sum[i], Count: s.Count[i]}
		}
		series[s.Key] = stats.SeriesOf(sim.Time(tl.WindowNs), b)
	}
	return tl.Run, series, nil
}

// RenderTimeline writes the per-window means of the series as aligned
// columns (asCSV=false) or CSV (asCSV=true). Rows are windows from t=0,
// stamped in seconds at timelinePrecision; a cell is blank when its window
// saw no samples. Keys render in lexical order.
func RenderTimeline(w io.Writer, series map[string]*stats.Series, asCSV bool) error {
	keys := SortedSeriesKeys(series)
	if len(keys) == 0 {
		return fmt.Errorf("no series to render")
	}
	var window sim.Time
	windows := 0
	for _, sr := range series {
		window = max(window, sr.BucketWidth())
		windows = max(windows, sr.Len())
	}
	prec := timelinePrecision(window)

	rows := [][]string{append([]string{"t_seconds"}, keys...)}
	for i := 0; i < windows; i++ {
		row := make([]string, len(keys)+1)
		row[0] = strconv.FormatFloat((sim.Time(i) * window).Seconds(), 'f', prec, 64)
		for j, key := range keys {
			if m, ok := series[key].Mean(i); ok {
				row[j+1] = strconv.FormatFloat(m, 'g', 6, 64)
			}
		}
		rows = append(rows, row)
	}
	if asCSV {
		return csv.NewWriter(w).WriteAll(rows)
	}

	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for j, c := range row {
			widths[j] = max(widths[j], len(c))
		}
	}
	for _, row := range rows {
		for j, c := range row {
			if j > 0 {
				if _, err := io.WriteString(w, "  "); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%*s", widths[j], c); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// timelinePrecision returns the decimal places that render window starts
// exactly: enough digits for the window width itself (sub-millisecond
// windows would otherwise collapse onto repeated timestamps), never fewer
// than 3.
func timelinePrecision(window sim.Time) int {
	prec := 9 // ns resolution
	for d := window; prec > 3 && d > 0 && d%10 == 0; d /= 10 {
		prec--
	}
	return prec
}

// IsTimelineLine reports whether a JSONL line is a timeline dump line
// rather than an event-trace line.
func IsTimelineLine(line []byte) bool {
	return len(line) > 0 && line[0] == '{' && bytes.Contains(line, []byte(timelineMagic))
}
