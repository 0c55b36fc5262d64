package transport

import (
	"testing"

	"mpcc/internal/cc/reno"
	"mpcc/internal/netem"
	"mpcc/internal/sim"
)

// FuzzRangeSet checks the reassembly set against a bitmap model for
// arbitrary add sequences (each byte pair of the input encodes one add).
func FuzzRangeSet(f *testing.F) {
	f.Add([]byte{0, 10, 5, 10, 20, 3})
	f.Add([]byte{100, 50, 0, 100})
	// Overlapping-duplicate patterns from the hostile-path model: exact
	// duplicates (a retransmission racing its late original), a duplicate
	// arriving after later data filled in behind it, and staggered partial
	// overlaps stitching across range boundaries.
	f.Add([]byte{10, 20, 10, 20, 10, 20})
	f.Add([]byte{10, 20, 40, 20, 10, 20, 40, 20})
	f.Add([]byte{0, 30, 10, 30, 20, 30, 5, 40})
	f.Add([]byte{50, 10, 45, 20, 55, 10, 50, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return
		}
		const universe = 512
		var r rangeSet
		model := make([]bool, universe)
		for i := 0; i+1 < len(data); i += 2 {
			off := int(data[i]) * 2 % universe
			size := int(data[i+1])%48 + 1
			if off+size > universe {
				size = universe - off
			}
			r.add(int64(off), size)
			for j := off; j < off+size; j++ {
				model[j] = true
			}
		}
		prefix := 0
		for prefix < universe && model[prefix] {
			prefix++
		}
		if r.contiguous() != int64(prefix) {
			t.Fatalf("contiguous %d, model prefix %d (input %v)", r.contiguous(), prefix, data)
		}
		var buffered int64
		for i := prefix; i < universe; i++ {
			if model[i] {
				buffered++
			}
		}
		if r.buffered() != buffered {
			t.Fatalf("buffered %d, model %d", r.buffered(), buffered)
		}
	})
}

// FuzzFaultTimeline drives a single-subflow file transfer through an
// arbitrary sequence of link down/up toggles (each input byte is a dwell
// time in 50 ms units, alternating down/up starting with down) and checks
// the transport's fault-handling invariants: the in-flight ledger balances,
// the transfer completes once the link is finally restored, and nothing
// panics along the way.
func FuzzFaultTimeline(f *testing.F) {
	// RTO storm: rapid flaps around the RTO timescale.
	f.Add([]byte{5, 1, 5, 1, 5, 1, 5, 1})
	// One long outage gap mid-transfer (3 s down).
	f.Add([]byte{60})
	// Repeated long outages with short recovery windows.
	f.Add([]byte{40, 10, 40, 10, 40, 10})
	// Sub-RTO blips that should never trip the failure detector.
	f.Add([]byte{1, 63, 1, 63, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16 {
			return
		}
		eng := sim.NewEngine(9)
		link := netem.NewLink(eng, "l", 20e6, 10*sim.Millisecond, 75000)
		path := netem.NewPath(eng, "p", link)
		c := NewConnection(eng, "fuzz")
		c.AddWindowSubflow(path, reno.New())
		c.SetApp(NewFile(200_000), nil)
		c.Start(0)
		at := 100 * sim.Millisecond
		down := false
		for _, b := range data {
			at += sim.Time(int(b)%64+1) * 50 * sim.Millisecond
			down = !down
			state := down
			eng.At(at, func() { link.SetDown(state) })
		}
		eng.At(at+50*sim.Millisecond, func() { link.SetDown(false) })
		eng.Run(at + 300*sim.Second)
		s := c.Subflows()[0]
		if s.inflightPkts < 0 || s.inflightBytes < 0 {
			t.Fatalf("negative inflight: %d pkts / %d bytes", s.inflightPkts, s.inflightBytes)
		}
		unresolved := 0
		for _, rec := range s.outstanding[s.outHead:] {
			if rec != nil && !rec.acked && !rec.lost {
				unresolved++
			}
		}
		if s.inflightPkts != unresolved {
			t.Fatalf("inflight counter %d, ledger %d (timeline %v)", s.inflightPkts, unresolved, data)
		}
		if c.FCT() < 0 {
			t.Fatalf("transfer never completed after the link was restored (fails=%d state=%v timeline %v)",
				s.Fails(), s.state, data)
		}
		if c.AckedBytes() != 200_000 {
			t.Fatalf("acked %d bytes, want 200000", c.AckedBytes())
		}
	})
}
