package netem

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"mpcc/internal/sim"
)

// BWTrace is a recorded bandwidth timeseries for trace-replay links: each
// sample gives the link rate taking effect at its timestamp. Traces come
// from a small CSV format (see ParseBWTrace) and drive a link's existing
// time-varying rate knob via Link.ScheduleRates.
type BWTrace struct {
	Points []RatePoint // monotonically increasing At
}

// maxTraceSeconds bounds sample timestamps so sim.FromSeconds can never
// overflow the int64 nanosecond clock (~292 years; we allow 10 years).
const maxTraceSeconds = 315_360_000

// ParseBWTrace reads a bandwidth trace in CSV form:
//
//	# comment lines and blank lines are skipped
//	time_s,rate_mbps   <- optional header
//	0.0,12.5
//	1.0,9.3
//
// Each data row is "<time_s>,<rate_mbps>": the offset in seconds at which
// the rate takes effect and the rate in Mbit/s. Timestamps must be
// non-negative, finite, and strictly increasing; rates non-negative and
// finite (0 models a stalled sample — the link blackholes while it holds).
// A trace with no data rows is an error.
func ParseBWTrace(r io.Reader) (*BWTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	tr := &BWTrace{}
	lineNo := 0
	headerSeen := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f1, f2, ok := strings.Cut(line, ",")
		if !ok || strings.Contains(f2, ",") {
			return nil, fmt.Errorf("bwtrace line %d: want 2 comma-separated fields", lineNo)
		}
		t, errT := strconv.ParseFloat(strings.TrimSpace(f1), 64)
		if errT != nil && len(tr.Points) == 0 && !headerSeen {
			// One non-numeric leading row is accepted as the header.
			headerSeen = true
			continue
		}
		mbps, errR := strconv.ParseFloat(strings.TrimSpace(f2), 64)
		if errT != nil || errR != nil {
			return nil, fmt.Errorf("bwtrace line %d: malformed number", lineNo)
		}
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 || t > maxTraceSeconds {
			return nil, fmt.Errorf("bwtrace line %d: time %v out of range", lineNo, t)
		}
		if math.IsNaN(mbps) || math.IsInf(mbps, 0) || mbps < 0 || mbps > 1e9 {
			return nil, fmt.Errorf("bwtrace line %d: rate %v out of range", lineNo, mbps)
		}
		at := sim.FromSeconds(t)
		if n := len(tr.Points); n > 0 && at <= tr.Points[n-1].At {
			return nil, fmt.Errorf("bwtrace line %d: non-monotonic timestamp %v", lineNo, t)
		}
		tr.Points = append(tr.Points, RatePoint{At: at, RateBps: mbps * 1e6})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.Points) == 0 {
		return nil, fmt.Errorf("bwtrace: empty trace")
	}
	return tr, nil
}

// ParseBWTraceString parses a trace held in a string (embedded traces,
// tests, fuzzing).
func ParseBWTraceString(s string) (*BWTrace, error) {
	return ParseBWTrace(strings.NewReader(s))
}

// Duration returns the trace's natural loop period: the last sample's
// timestamp plus one sample-hold time (the spacing between the final two
// samples), so a looped replay holds the last rate as long as the others.
// Single-sample traces return their timestamp (0 for a trace starting at 0:
// such a trace is a constant rate and needs no loop).
func (tr *BWTrace) Duration() sim.Time {
	n := len(tr.Points)
	if n == 0 {
		return 0
	}
	last := tr.Points[n-1].At
	if n == 1 {
		return last
	}
	return last + (last - tr.Points[n-2].At)
}

// MaxRate returns the highest rate in the trace in bits/s (the ceiling a
// trace-replay link can ever serialize at — the trace-envelope oracle's
// bound).
func (tr *BWTrace) MaxRate() float64 {
	max := 0.0
	for _, p := range tr.Points {
		if p.RateBps > max {
			max = p.RateBps
		}
	}
	return max
}

// RatePoint pairs a virtual time offset with a link bandwidth, for
// trace-driven links (e.g. cellular bandwidth traces).
type RatePoint struct {
	At      sim.Time
	RateBps float64
}

// ScheduleRates applies a bandwidth trace to the link: each point's rate
// takes effect at its offset from now. If loop > 0 the trace repeats with
// that period indefinitely; pass a BWTrace's Duration() to loop it
// seamlessly.
func (l *Link) ScheduleRates(points []RatePoint, loop sim.Time) {
	var apply func(base sim.Time)
	apply = func(base sim.Time) {
		for _, p := range points {
			l.eng.At(base+p.At, func() { l.SetRate(p.RateBps) })
		}
		if loop > 0 {
			l.eng.At(base+loop, func() { apply(base + loop) })
		}
	}
	apply(l.eng.Now())
}
