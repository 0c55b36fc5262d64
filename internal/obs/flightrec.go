package obs

import "io"

// FlightRecorder is a Sink keeping the most recent probe events in a
// fixed-size ring — the "what happened just before it went wrong" view.
// internal/simtest dumps it automatically when an oracle fails, and
// mpccbench -flightrec exposes the same ring for experiments.
//
// The ring is preallocated at construction and Emit only copies the event
// value into the next slot, so a warm recorder is alloc-free regardless of
// how many events pass through (the slab-pool discipline of the event core:
// fixed memory, unbounded traffic). Note Event carries strings; those are
// references to interned names the emitting layers own, not copies.
type FlightRecorder struct {
	ring  []Event
	next  int
	total int64
}

// DefaultFlightRecorderSize is the ring capacity used when size <= 0 — the
// last ~4k events, a few hundred milliseconds of a busy run.
const DefaultFlightRecorderSize = 4096

// NewFlightRecorder returns a recorder keeping the last size events
// (DefaultFlightRecorderSize when size <= 0).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightRecorderSize
	}
	return &FlightRecorder{ring: make([]Event, size)}
}

// Emit implements Sink.
func (f *FlightRecorder) Emit(e Event) {
	f.ring[f.next] = e
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
	}
	f.total++
}

// Total returns how many events were ever recorded (>= Len once wrapped).
func (f *FlightRecorder) Total() int64 { return f.total }

// Len returns how many events the ring currently holds.
func (f *FlightRecorder) Len() int {
	if f.total < int64(len(f.ring)) {
		return int(f.total)
	}
	return len(f.ring)
}

// Events returns the retained events, oldest first, as a fresh slice.
func (f *FlightRecorder) Events() []Event {
	n := f.Len()
	out := make([]Event, 0, n)
	if f.total >= int64(len(f.ring)) {
		out = append(out, f.ring[f.next:]...)
	}
	return append(out, f.ring[:f.next]...)
}

// AppendJSONL appends the last n retained events (all of them when n <= 0)
// as JSONL trace lines, oldest first — the same byte-stable format the
// JSONLWriter sink produces, so a dump replays through ReadTrace.
func (f *FlightRecorder) AppendJSONL(b []byte, n int) []byte {
	evs := f.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	enc := new(lineEncoder)
	for i := range evs {
		b = enc.appendEvent(b, &evs[i])
	}
	return b
}

// WriteJSONL writes the whole retained ring as JSONL to w.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	_, err := w.Write(f.AppendJSONL(nil, 0))
	return err
}
