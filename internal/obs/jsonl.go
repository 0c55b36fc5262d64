package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"mpcc/internal/sim"
)

// JSONLWriter is a Sink serializing events as one JSON object per line.
//
// Lines are byte-reproducible: fields appear in a fixed order (t, kind,
// then the kind's own fields), virtual time is emitted as integer
// nanoseconds, and floats use strconv's shortest round-trip representation
// — so a fixed-seed run produces a byte-identical trace every time. Only
// the fields a kind defines are written; consumers can rely on their
// presence per kind (see AppendEvent).
//
// One writer per goroutine: a writer may be shared by the sequential runs of
// a sweep, but Emit, Flush and Close take no lock. Every tap that shares one
// runs its simulations on one goroutine (mpccbench -trace forces -workers 1,
// and a sharded run replays its engines' events from the goroutine that
// closes it), which a byte-reproducible trace needs anyway.
type JSONLWriter struct {
	w      io.Writer
	closer io.Closer
	enc    lineEncoder
	buf    []byte // encoded lines not yet written to w
	err    error  // the first write error; nothing is written after it
}

const jsonlBufSize = 1 << 16

// NewJSONLWriter returns a writer emitting to w. If w is an io.Closer,
// Close closes it after flushing.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	jw := &JSONLWriter{w: w, buf: make([]byte, 0, jsonlBufSize)}
	if c, ok := w.(io.Closer); ok {
		jw.closer = c
	}
	return jw
}

// Emit implements Sink.
func (jw *JSONLWriter) Emit(e Event) {
	jw.buf = jw.enc.appendEvent(jw.buf, &e)
	if cap(jw.buf)-len(jw.buf) < lineRoom {
		jw.Flush() // an error is latched for the caller's Flush or Close
	}
}

// Flush writes buffered lines through to the underlying writer. It returns
// the first error any write has met, now or earlier.
func (jw *JSONLWriter) Flush() error {
	if len(jw.buf) > 0 && jw.err == nil {
		n, err := jw.w.Write(jw.buf)
		if err == nil && n < len(jw.buf) {
			err = io.ErrShortWrite
		}
		jw.err = err
	}
	jw.buf = jw.buf[:0]
	return jw.err
}

// Close flushes and closes the underlying writer (when it is a Closer).
func (jw *JSONLWriter) Close() error {
	err := jw.Flush()
	if jw.closer != nil {
		if cerr := jw.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// AppendEvent appends e's JSONL line (newline included) to b. The field
// set and order per kind:
//
//	mi-decision:  t, kind, flow, sf, state, rate_bps
//	utility:      t, kind, flow, sf, state, rate_bps, utility
//	rate-change:  t, kind, flow, sf, rate_bps
//	drop:         t, kind, link, cause, bytes
//	queue-depth:  t, kind, link, bytes
//	retransmit:   t, kind, flow, sf, bytes
//	rto-backoff:  t, kind, flow, sf, rto_s, consec
//	subflow-down: t, kind, flow, sf
//	subflow-up:   t, kind, flow, sf
//	sched-pick:   t, kind, flow, sf, bytes
//	run-start:    t, kind, seed, horizon_s
//	run-end:      t, kind
//	reorder:      t, kind, link, bytes, early_s
//	duplicate:    t, kind, link, bytes
//	ack-compress: t, kind, link, defer_s
//	rack-mark:    t, kind, flow, sf, bytes, reo_wnd_s
//	spurious-retx: t, kind, flow, sf, bytes, rto
//	shaper-delay: t, kind, link, bytes, delay_s
//	handover:     t, kind, link, rate_bps, delay_s
//	rtt-sample:   t, kind, flow, sf, rtt_s
//	session-open:   t, kind, flow, link, bytes, active
//	session-close:  t, kind, flow, link, state, fct_s, bytes, active
//	session-reject: t, kind, flow, link, state, attempt
//	session-retry:  t, kind, flow, delay_s, attempt
func AppendEvent(b []byte, e Event) []byte {
	return (*lineEncoder)(nil).appendEvent(b, &e)
}

// jsonEvent is the wire form used when parsing a trace back.
type jsonEvent struct {
	T        int64    `json:"t"`
	Kind     string   `json:"kind"`
	Flow     string   `json:"flow"`
	Link     string   `json:"link"`
	SF       *int32   `json:"sf"`
	State    string   `json:"state"`
	Cause    string   `json:"cause"`
	Bytes    int64    `json:"bytes"`
	RateBps  float64  `json:"rate_bps"`
	Utility  *float64 `json:"utility"`
	RTOs     float64  `json:"rto_s"`
	Consec   float64  `json:"consec"`
	Seed     int64    `json:"seed"`
	HorizonS float64  `json:"horizon_s"`
	EarlyS   float64  `json:"early_s"`
	DeferS   float64  `json:"defer_s"`
	ReoWndS  float64  `json:"reo_wnd_s"`
	RTOFlag  float64  `json:"rto"`
	DelayS   float64  `json:"delay_s"`
	RTTs     float64  `json:"rtt_s"`
	FctS     float64  `json:"fct_s"`
	Active   float64  `json:"active"`
	Attempt  float64  `json:"attempt"`
}

// ParseEvent decodes one JSONL trace line back into an Event.
func ParseEvent(line []byte) (Event, error) {
	var je jsonEvent
	if err := json.Unmarshal(line, &je); err != nil {
		return Event{}, err
	}
	kind, ok := KindFromString(je.Kind)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown event kind %q", je.Kind)
	}
	e := Event{At: sim.Time(je.T), Kind: kind, Flow: je.Flow, Link: je.Link, State: je.State, Subflow: -1}
	if je.SF != nil {
		e.Subflow = *je.SF
	}
	switch kind {
	case KindMIDecision, KindRateChange:
		e.Value = je.RateBps
	case KindUtility:
		e.Aux = je.RateBps
		if je.Utility != nil {
			e.Value = *je.Utility
		}
	case KindDrop:
		cause, ok := CauseFromString(je.Cause)
		if !ok {
			return Event{}, fmt.Errorf("obs: unknown drop cause %q", je.Cause)
		}
		e.Cause = cause
		e.Bytes = je.Bytes
	case KindQueueDepth, KindRetransmit, KindSchedPick:
		e.Bytes = je.Bytes
	case KindRTOBackoff:
		e.Value = je.RTOs
		e.Aux = je.Consec
	case KindRunStart:
		e.Bytes = je.Seed
		e.Value = je.HorizonS
	case KindReorder:
		e.Bytes = je.Bytes
		e.Value = je.EarlyS
	case KindDuplicate:
		e.Bytes = je.Bytes
	case KindAckCompress:
		e.Value = je.DeferS
	case KindRackMark:
		e.Bytes = je.Bytes
		e.Value = je.ReoWndS
	case KindSpuriousRetx:
		e.Bytes = je.Bytes
		e.Aux = je.RTOFlag
	case KindShaperDelay:
		e.Bytes = je.Bytes
		e.Value = je.DelayS
	case KindHandover:
		e.Value = je.RateBps
		e.Aux = je.DelayS
	case KindRTTSample:
		e.Value = je.RTTs
	case KindSessionOpen:
		e.Bytes = je.Bytes
		e.Aux = je.Active
	case KindSessionClose:
		e.Value = je.FctS
		e.Bytes = je.Bytes
		e.Aux = je.Active
	case KindSessionReject:
		e.Aux = je.Attempt
	case KindSessionRetry:
		e.Value = je.DelayS
		e.Aux = je.Attempt
	}
	return e, nil
}

// ReadTrace parses a whole JSONL trace, invoking fn per event in file
// order. Blank lines are skipped; a malformed line aborts with an error
// naming its line number.
func ReadTrace(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, err := ParseEvent(line)
		if err != nil {
			return fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return sc.Err()
}
