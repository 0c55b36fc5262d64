package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"mpcc/internal/sim"
)

// JSONLWriter is a Sink serializing events as one JSON object per line.
//
// Lines are byte-reproducible: fields appear in a fixed order (t, kind,
// then the kind's own fields), virtual time is emitted as integer
// nanoseconds, and floats use strconv's shortest round-trip representation
// — so a fixed-seed run produces a byte-identical trace every time. Only
// the fields a kind defines are written; consumers can rely on their
// presence per kind (the kind's row in layouts).
//
// One writer per goroutine: a writer may be shared by the sequential runs of
// a sweep, but Emit, Flush and Close take no lock. Every tap that shares one
// runs its simulations on one goroutine (mpccbench -trace forces -workers 1,
// and a probed sharded run steps its engines on the goroutine that runs
// it), which a byte-reproducible trace needs anyway.
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

// AppendEvent appends e's JSONL line (newline included) to b: t, kind, then
// the members of e's kind in its layouts order.
func AppendEvent(b []byte, e Event) []byte {
	return (*lineEncoder)(nil).appendEvent(b, &e)
}

// ParseEvent decodes one JSONL trace line back into an Event: t, kind, then
// the members layouts names for the kind, each read from the member with
// exactly that key. Members the kind does not name are ignored, and a missing
// or null one leaves its field zero (Subflow -1).
func ParseEvent(line []byte) (Event, error) {
	line = bytes.TrimSpace(line)
	if !json.Valid(line) || line[0] != '{' {
		return Event{}, errors.New("obs: trace line is not a JSON object")
	}
	var buf [12]rawMember
	ms := splitObject(buf[:0], line)
	name, err := parseString(lookup(ms, "kind"))
	if err != nil {
		return Event{}, err
	}
	kind, ok := KindFromString(name)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown event kind %q", name)
	}
	e := Event{Kind: kind, Subflow: -1}
	if raw := lookup(ms, "t"); raw != nil {
		t, err := strconv.ParseInt(string(raw), 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("obs: t: %w", err)
		}
		e.At = sim.Time(t)
	}
	lay := &layouts[kind]
	for _, mbs := range [2][]member{leadMembers[lay.lead], lay.members} {
		for _, mb := range mbs {
			if raw := lookup(ms, mb.key()); raw != nil {
				if err := parseValue(&e, mb.src, raw); err != nil {
					return Event{}, fmt.Errorf("obs: %s: %w", mb.key(), err)
				}
			}
		}
	}
	return e, nil
}

// rawMember is one member of a JSON object: its key as written between the
// quotes, and its value's token.
type rawMember struct{ key, val []byte }

// splitObject appends the members of obj, a valid JSON object, to dst,
// leaving out those whose value is null: one level in, outside strings, a
// member ends at a comma or the closing brace, and its colon splits it.
func splitObject(dst []rawMember, obj []byte) []rawMember {
	depth, start, colon := 0, 1, 0
	for i := 0; i < len(obj); i++ {
		switch obj[i] {
		case '"':
			for i++; obj[i] != '"'; i++ {
				if obj[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case ':':
			if depth == 1 {
				colon = i
			}
		case ',', '}', ']':
			if depth == 1 && colon > start {
				key, val := bytes.TrimSpace(obj[start:colon]), bytes.TrimSpace(obj[colon+1:i])
				if string(val) != "null" {
					dst = append(dst, rawMember{key[1 : len(key)-1], val})
				}
				start = i + 1
			}
			if obj[i] != ',' {
				depth--
			}
		}
	}
	return dst
}

// lookup returns the value of the last member keyed key, or nil.
func lookup(ms []rawMember, key string) []byte {
	for i := len(ms) - 1; i >= 0; i-- {
		if string(ms[i].key) == key {
			return ms[i].val
		}
	}
	return nil
}

// parseString decodes a JSON string token; nil (a missing member) is "".
func parseString(raw []byte) (string, error) {
	if raw == nil {
		return "", nil
	}
	if raw[0] != '"' {
		return "", fmt.Errorf("%s is not a string", raw)
	}
	for _, c := range raw {
		if c == '\\' || c >= 0x80 {
			var s string
			err := json.Unmarshal(raw, &s) // escapes and non-ASCII, as the encoder's slow path wrote them
			return s, err
		}
	}
	return string(raw[1 : len(raw)-1]), nil
}

// parseValue decodes raw into e's field src.
func parseValue(e *Event, src source, raw []byte) (err error) {
	switch src {
	case srcFlow:
		e.Flow, err = parseString(raw)
	case srcSF:
		var sf int64
		sf, err = strconv.ParseInt(string(raw), 10, 32)
		e.Subflow = int32(sf)
	case srcLink:
		e.Link, err = parseString(raw)
	case srcState:
		e.State, err = parseString(raw)
	case srcCause:
		var name string
		if name, err = parseString(raw); err == nil {
			var ok bool
			if e.Cause, ok = CauseFromString(name); !ok {
				err = fmt.Errorf("unknown drop cause %q", name)
			}
		}
	case srcBytes:
		e.Bytes, err = strconv.ParseInt(string(raw), 10, 64)
	case srcValue:
		e.Value, err = strconv.ParseFloat(string(raw), 64)
	default: // srcAux, srcAuxInt
		e.Aux, err = strconv.ParseFloat(string(raw), 64)
	}
	return err
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
