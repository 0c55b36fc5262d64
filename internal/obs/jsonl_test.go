package obs

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"mpcc/internal/sim"
)

// FuzzParseEvent: arbitrary bytes never panic the decoder, and for every
// kind an event holding values in exactly the fields its layouts row names
// round-trips AppendEvent → ParseEvent bit for bit.
func FuzzParseEvent(f *testing.F) {
	f.Add([]byte(`{"t":5,"kind":"drop","link":"l0","cause":"policer","bytes":1500}`), int64(19e6), int64(1400), math.Float64bits(0.035), "mp", "link1", "decide")
	f.Add([]byte(`{"kind":"rtt-sample","sf":null,"x":[{"}":"]"},[]],"rtt_s":-0}`), int64(0), int64(-1), math.Float64bits(math.Copysign(0, -1)), "", "", "")
	f.Add([]byte(` {"t":1e3,"kind":"run-end"} `), int64(math.MaxInt64), int64(math.MinInt64), math.Float64bits(math.MaxFloat64), `q"uote<&>`, "back\\slash ", "ctl\x01\n")
	f.Add([]byte(`{"t":0,"kind":"session-close","flow":"sé","state":7}`), int64(-5), int64(1<<40), math.Float64bits(math.NaN()), "naïve→", "\xff\xfe", "é")
	f.Add([]byte(`not json`), int64(42), int64(3), math.Float64bits(1e21), "s0001", "srv0", "done")
	f.Fuzz(func(t *testing.T, line []byte, at, n int64, bits uint64, flow, link, state string) {
		ParseEvent(line) // must not panic; any error is fine

		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = float64(n) // JSON has neither, so the encoder writes no parseable form of them
		}
		// The encoder writes invalid UTF-8 as U+FFFD, so only valid strings
		// can come back unchanged.
		flow, link, state = strings.ToValidUTF8(flow, "?"), strings.ToValidUTF8(link, "?"), strings.ToValidUTF8(state, "?")
		for k := Kind(0); k < numKinds; k++ {
			want := Event{At: sim.Time(at), Kind: k, Subflow: -1}
			lay := &layouts[k]
			for _, mbs := range [2][]member{leadMembers[lay.lead], lay.members} {
				for _, mb := range mbs {
					switch mb.src {
					case srcFlow:
						want.Flow = flow
					case srcSF:
						want.Subflow = int32(n)
					case srcLink:
						want.Link = link
					case srcState:
						want.State = state
					case srcCause:
						want.Cause = DropCause(uint64(n) % uint64(numCauses))
					case srcBytes:
						want.Bytes = n
					case srcAuxInt:
						want.Aux = float64(n >> 11) // integral and exact
					case srcValue:
						want.Value = v
					case srcAux:
						want.Aux = -v
					}
				}
			}
			line := AppendEvent(nil, want)
			got, err := ParseEvent(line)
			if err != nil {
				t.Fatalf("ParseEvent(%q): %v", line, err)
			}
			if math.Float64bits(got.Value) != math.Float64bits(want.Value) || math.Float64bits(got.Aux) != math.Float64bits(want.Aux) {
				t.Fatalf("%q: floats %v/%v, want %v/%v", line, got.Value, got.Aux, want.Value, want.Aux)
			}
			got.Value, got.Aux, want.Value, want.Aux = 0, 0, 0, 0
			if got != want {
				t.Fatalf("%q parsed as %+v, want %+v", line, got, want)
			}
		}
	})
}

// BenchmarkReadTrace parses the fig3c trace golden and reports ns per event.
func BenchmarkReadTrace(b *testing.B) {
	data, err := os.ReadFile("../exp/testdata/trace_fig3c_seed11.jsonl.golden")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		if err := ReadTrace(bytes.NewReader(data), func(Event) error { events++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
