package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"mpcc/internal/sim"
)

// checkEncoders holds one event to the reference through every door: the
// stateless AppendEvent and the given stateful encoder (twice, so both the
// miss and the hit rendering of its prefix are compared).
func checkEncoders(t *testing.T, enc *lineEncoder, e Event) {
	t.Helper()
	want := refAppendEvent(nil, e)
	if got := AppendEvent(nil, e); !bytes.Equal(got, want) {
		t.Fatalf("AppendEvent(%+v)\n got %q\nwant %q", e, got, want)
	}
	for pass := 0; pass < 2; pass++ {
		if got := enc.appendEvent(nil, &e); !bytes.Equal(got, want) {
			t.Fatalf("encoder pass %d (%+v)\n got %q\nwant %q", pass, e, got, want)
		}
	}
}

// FuzzEncodeEvent: the line encoder is byte-identical to the reference for
// every kind (and an out-of-range one), on one encoder reused across kinds
// and across more distinct sources than its prefix table holds, so lines are
// rendered on a miss, on a hit, and again after eviction.
func FuzzEncodeEvent(f *testing.F) {
	f.Add(int64(19e6), int32(0), uint8(0), "flowA", "wifi", "decide", int64(1400), 0.035, 12e6, uint8(3))
	f.Add(int64(0), int32(-1), uint8(4), "", "", "", int64(0), 0.0, 0.0, uint8(1))
	f.Add(int64(1<<53+1), int32(math.MaxInt32), uint8(200), `q"uote`, `back\slash`, "ctl\x01\n", int64(-7), math.NaN(), math.Inf(-1), uint8(2))
	f.Add(int64(-5), int32(math.MinInt32), uint8(1), "naïve→", "\xff\xfe", "é", int64(math.MaxInt64), 1e-4, 1e6, uint8(2))
	f.Add(int64(math.MaxInt64), int32(7), uint8(2), "s0001", "srv0", "done", int64(120000), 0.5, 2.0, uint8(70))
	f.Add(int64(42), int32(1), uint8(3), "mp", "link1", "probing", int64(1500), 1e21, -1.0, uint8(12))
	f.Fuzz(func(t *testing.T, at int64, sf int32, cause uint8, flow, link, state string, size int64, value, aux float64, spread uint8) {
		enc := new(lineEncoder)
		for round := 0; round < 2; round++ {
			for j := 0; j <= int(spread)%80; j++ {
				for k := 0; k <= int(numKinds); k++ {
					e := Event{
						At: sim.Time(at), Kind: Kind(k), Cause: DropCause(cause), Subflow: sf + int32(j),
						Flow: flow, Link: link, State: state, Bytes: size, Value: value, Aux: aux,
					}
					if j > 0 {
						e.At += sim.Time(j)
						e.Flow += strconv.Itoa(j)
						e.Link += strconv.Itoa(j)
					}
					checkEncoders(t, enc, e)
				}
			}
		}
	})
}

// TestEncoderMatchesReferenceOnRealMix drives the encoder with the event
// mix the bus helpers actually build.
func TestEncoderMatchesReferenceOnRealMix(t *testing.T) {
	c := &collector{}
	emitAll(NewBus(c))
	if len(c.events) != int(numKinds) {
		t.Fatalf("emitAll covers %d kinds, want %d", len(c.events), numKinds)
	}
	enc := new(lineEncoder)
	for _, e := range c.events {
		checkEncoders(t, enc, e)
	}
}

// TestEncoderBoundedUnderNameChurn: a trace of thousands of distinct names
// (a churn run's sessions) reuses the table's storage — once every slot has
// a buffer, encoding allocates nothing however many names pass through.
func TestEncoderBoundedUnderNameChurn(t *testing.T) {
	names := make([]string, 5000)
	for i := range names {
		names[i] = fmt.Sprintf("s%06d", i)
	}
	enc := new(lineEncoder)
	buf := make([]byte, 0, 256)
	pass := func() {
		for i, name := range names {
			e := Event{At: sim.Time(i), Kind: KindRTTSample, Flow: name, Subflow: int32(i & 1), Value: 0.03}
			buf = enc.appendEvent(buf[:0], &e)
		}
	}
	pass()
	pass()
	if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
		t.Errorf("warm encoder allocated %.0f times per %d-name pass, want 0", allocs, len(names))
	}
	e := Event{At: 7, Kind: KindRTTSample, Flow: names[17], Subflow: 1, Value: 0.03}
	if got, want := enc.appendEvent(nil, &e), refAppendEvent(nil, e); !bytes.Equal(got, want) {
		t.Errorf("after churn: got %q, want %q", got, want)
	}
}

func checkNsFloat(t *testing.T, v float64) {
	t.Helper()
	got := appendNsFloat(nil, v)
	want := strconv.AppendFloat(nil, v, 'g', -1, 64)
	if !bytes.Equal(got, want) {
		t.Fatalf("appendNsFloat(%v = %#x) = %q, strconv says %q", v, math.Float64bits(v), got, want)
	}
}

// nsFloatEdges are the values around every decision appendNsFloat takes.
func nsFloatEdges() []float64 {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 3.5, 0.06, 0.035, 1e-9, 1e-7, 99999e-9, 1e-4, 100001e-9,
		0.001, 0.01, 0.1, 10, 100, 1000, 123456.789, 999999.999999999, 1e6, 1e7, 2e7, 1e15, 1e20, 1e21, 1e22,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, v := range edges[:len(edges):len(edges)] {
		edges = append(edges, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)), -v)
	}
	return edges
}

// FuzzAppendNsFloat: the integer fast path prints what strconv prints, for
// durations (its reason to exist), their neighbours, and arbitrary doubles.
func FuzzAppendNsFloat(f *testing.F) {
	for _, v := range nsFloatEdges() {
		f.Add(int64(v*1e9), math.Float64bits(v))
	}
	f.Add(int64(math.MaxInt64), uint64(math.MaxUint64))
	f.Add(int64(math.MinInt64), uint64(1))
	f.Fuzz(func(t *testing.T, n int64, bits uint64) {
		d := sim.Time(n).Seconds()
		v := math.Float64frombits(bits)
		for _, x := range []float64{d, -d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)), v, v / 1e9, d + v} {
			checkNsFloat(t, x)
		}
	})
}

// TestAppendNsFloatMatchesStrconv sweeps what the fuzz seeds cannot: a
// fixed-seed sample of durations at every magnitude the fast path covers
// and just outside it.
func TestAppendNsFloatMatchesStrconv(t *testing.T) {
	for _, v := range nsFloatEdges() {
		checkNsFloat(t, v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		n := rng.Int63n(int64(math.Pow(10, float64(1+rng.Intn(17))))) // 1 to 17 digits
		checkNsFloat(t, sim.Time(n).Seconds())
		checkNsFloat(t, float64(n)*1e-9) // not the same double as n/1e9
		checkNsFloat(t, math.Float64frombits(rng.Uint64()))
	}
}

// failAfter accepts ok writes, then fails every later one.
type failAfter struct {
	ok     int
	writes [][]byte
	closed int
	err    error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(w.writes) >= w.ok {
		w.writes = append(w.writes, nil)
		return 0, fmt.Errorf("write %d: %w", len(w.writes), w.err)
	}
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (w *failAfter) Close() error { w.closed++; return nil }

func TestJSONLWriterSemantics(t *testing.T) {
	e := Event{At: 5, Kind: KindSchedPick, Flow: "mp", Bytes: 1400}
	line := refAppendEvent(nil, e)

	t.Run("buffers until full, then writes whole lines", func(t *testing.T) {
		w := &failAfter{ok: math.MaxInt}
		jw := NewJSONLWriter(w)
		n := 3 * jsonlBufSize / len(line)
		for i := 0; i < n; i++ {
			jw.Emit(e)
		}
		if len(w.writes) != 2 && len(w.writes) != 3 {
			t.Fatalf("%d writes for %d bytes through a %d-byte buffer", len(w.writes), n*len(line), jsonlBufSize)
		}
		if err := jw.Close(); err != nil || w.closed != 1 {
			t.Fatalf("Close = %v, closed %d times", err, w.closed)
		}
		var all []byte
		for _, p := range w.writes {
			if len(p) > jsonlBufSize || len(p)%len(line) != 0 {
				t.Fatalf("write of %d bytes splits a %d-byte line or overruns the buffer", len(p), len(line))
			}
			all = append(all, p...)
		}
		if !bytes.Equal(all, bytes.Repeat(line, n)) {
			t.Fatal("written stream differs from the emitted lines")
		}
	})

	t.Run("a line longer than the buffer is written whole", func(t *testing.T) {
		w := &failAfter{ok: math.MaxInt}
		jw := NewJSONLWriter(w)
		long := e
		long.Flow = strings.Repeat("x", 2*jsonlBufSize)
		jw.Emit(e)
		jw.Emit(long)
		jw.Emit(e)
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		want := append(append(append([]byte(nil), line...), refAppendEvent(nil, long)...), line...)
		if got := bytes.Join(w.writes, nil); !bytes.Equal(got, want) {
			t.Fatalf("stream of %d bytes, want %d", len(got), len(want))
		}
		whole := false
		for _, p := range w.writes {
			whole = whole || bytes.Contains(p, refAppendEvent(nil, long))
		}
		if !whole {
			t.Fatal("the long line was split across writes")
		}
	})

	t.Run("Flush latches the first error", func(t *testing.T) {
		boom := errors.New("disk full")
		w := &failAfter{ok: 1, err: boom}
		jw := NewJSONLWriter(w)
		jw.Emit(e)
		if err := jw.Flush(); err != nil {
			t.Fatalf("first flush: %v", err)
		}
		jw.Emit(e)
		first := jw.Flush()
		if !errors.Is(first, boom) {
			t.Fatalf("second flush = %v, want the write error", first)
		}
		jw.Emit(e)
		if err := jw.Flush(); err != first {
			t.Fatalf("later flush = %v, want the first error %v", err, first)
		}
		if len(w.writes) != 2 {
			t.Fatalf("%d writes reached the writer, want none after the failure", len(w.writes))
		}
		if err := jw.Close(); err != first || w.closed != 1 {
			t.Fatalf("Close = %v (closed %d times), want the first error and one close", err, w.closed)
		}
	})

	t.Run("a short write is an error", func(t *testing.T) {
		jw := NewJSONLWriter(shortWriter{})
		jw.Emit(e)
		if err := jw.Flush(); !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("Flush = %v, want io.ErrShortWrite", err)
		}
	})
}

type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return len(p) / 2, nil }

// TestHashSinkBatchingKeepsDigest: the batched sink's Sum, taken at
// arbitrary points between events, is the SHA-256 of the reference lines so
// far — Sum flushes, does not reset, and batching changes nothing.
func TestHashSinkBatchingKeepsDigest(t *testing.T) {
	c := &collector{}
	emitAll(NewBus(c))
	hs := NewHashSink()
	ref := sha256.New()
	n := 0
	for round := 0; n < 3*hashBufSize/60; round++ {
		for i, e := range c.events {
			e.At += sim.Time(round) * sim.Millisecond
			hs.Emit(e)
			ref.Write(refAppendEvent(nil, e))
			n++
			if (round*len(c.events)+i)%37 == 0 || n < 3 {
				if got, want := hs.Sum(), hex.EncodeToString(ref.Sum(nil)); got != want {
					t.Fatalf("after %d events: Sum = %s, want %s", n, got, want)
				}
			}
		}
	}
	if hs.Events() != n {
		t.Errorf("Events() = %d, want %d", hs.Events(), n)
	}
	if a, b := hs.Sum(), hs.Sum(); a != b || a != hex.EncodeToString(ref.Sum(nil)) {
		t.Errorf("repeated Sum moved: %s then %s", a, b)
	}
}
