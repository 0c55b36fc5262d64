package obs

import (
	"bytes"
	"testing"

	"mpcc/internal/sim"
)

func fillRecorder(fr *FlightRecorder, n int) {
	for i := 0; i < n; i++ {
		fr.Emit(Event{
			At:    sim.Time(i) * sim.Millisecond,
			Kind:  KindSchedPick,
			Flow:  "mp",
			Bytes: int64(i),
		})
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	fr := NewFlightRecorder(16)
	if len(fr.ring) != 16 {
		t.Fatalf("cap = %d", len(fr.ring))
	}
	fillRecorder(fr, 5)
	if fr.Len() != 5 || fr.Total() != 5 {
		t.Fatalf("len/total = %d/%d before wrap", fr.Len(), fr.Total())
	}
	ev := fr.Events()
	if len(ev) != 5 || ev[0].Bytes != 0 || ev[4].Bytes != 4 {
		t.Fatalf("pre-wrap events wrong: %+v", ev)
	}

	fillRecorder(fr, 100) // restarts at Bytes=0; total 105 emits, ring keeps last 16
	if fr.Len() != 16 || fr.Total() != 105 {
		t.Fatalf("len/total = %d/%d after wrap", fr.Len(), fr.Total())
	}
	ev = fr.Events()
	if len(ev) != 16 {
		t.Fatalf("Events() returned %d", len(ev))
	}
	// Oldest-first: the last 16 of the second fill are Bytes 84..99.
	for i, e := range ev {
		if want := int64(84 + i); e.Bytes != want {
			t.Errorf("event %d: bytes %d, want %d", i, e.Bytes, want)
		}
	}
}

// TestFlightRecorderDumpDeterminism: identical event sequences produce
// byte-identical dumps, including after the ring wraps.
func TestFlightRecorderDumpDeterminism(t *testing.T) {
	dump := func() []byte {
		fr := NewFlightRecorder(64)
		fillRecorder(fr, 1000)
		return fr.AppendJSONL(nil, 64)
	}
	a, b := dump(), dump()
	if len(a) == 0 {
		t.Fatal("empty dump")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different dumps")
	}
	// Each dumped line is a replayable trace line.
	var parsed []Event
	if err := ReadTrace(bytes.NewReader(a), func(e Event) error {
		parsed = append(parsed, e)
		return nil
	}); err != nil {
		t.Fatalf("dump not replayable: %v", err)
	}
	if len(parsed) != 64 || parsed[0].Bytes != 936 || parsed[63].Bytes != 999 {
		t.Fatalf("replayed dump wrong: %d events, first %v last %v",
			len(parsed), parsed[0].Bytes, parsed[len(parsed)-1].Bytes)
	}

	// AppendJSONL(n) with n smaller than Len keeps only the newest n.
	fr := NewFlightRecorder(64)
	fillRecorder(fr, 1000)
	small := fr.AppendJSONL(nil, 4)
	lines := bytes.Count(small, []byte("\n"))
	if lines != 4 {
		t.Errorf("tail dump has %d lines, want 4", lines)
	}

	var w bytes.Buffer
	if err := fr.WriteJSONL(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), a) {
		t.Error("WriteJSONL differs from AppendJSONL")
	}
}

func TestFlightRecorderEmitAllocFree(t *testing.T) {
	fr := NewFlightRecorder(DefaultFlightRecorderSize)
	e := Event{Kind: KindSchedPick, Flow: "mp", Bytes: 1400}
	if allocs := testing.AllocsPerRun(10000, func() {
		fr.Emit(e)
	}); allocs != 0 {
		t.Errorf("Emit allocated %.2f allocs/op, want 0", allocs)
	}
}
