package obs

import (
	"encoding/json"
	"strconv"

	"mpcc/internal/sim"
)

// The JSONL line encoder. A line is `{"t":` + the timestamp's digits, then
// `,"kind":"…"`, the members the kind leads with (flow and sf, or link), and
// the kind's remaining members in layouts order. Everything up to and
// including the first remaining member's key depends only on (kind, name,
// subflow), and a run emits millions of lines from a few dozen such sources
// — so an encoder renders that prefix once per source and afterwards writes
// a line as timestamp + one prefix copy + values + `}\n`.

// lead says which members follow "kind" and key a line's prefix.
type lead uint8

const (
	leadNone   lead = iota // run-scoped: nothing
	leadFlow               // flow
	leadFlowSF             // flow, sf
	leadLink               // link
)

// source says which Event field supplies a member's value, and how it is
// rendered.
type source uint8

const (
	srcLink   source = iota // Link, string
	srcState                // State, string
	srcCause                // Cause's name, string
	srcBytes                // Bytes, integer
	srcAuxInt               // Aux truncated to an integer
	srcValue                // Value, float
	srcAux                  // Aux, float
)

// member is one JSON member after the lead: its pre-rendered `,"key":` and
// the source of its value.
type member struct {
	sep string
	src source
}

func mem(key string, src source) member { return member{`,"` + key + `":`, src} }

// layout is one kind's line: the field set and order AppendEvent documents.
type layout struct {
	lead    lead
	members []member
}

var layouts = [numKinds]layout{
	KindMIDecision:    {leadFlowSF, []member{mem("state", srcState), mem("rate_bps", srcValue)}},
	KindUtility:       {leadFlowSF, []member{mem("state", srcState), mem("rate_bps", srcAux), mem("utility", srcValue)}},
	KindRateChange:    {leadFlowSF, []member{mem("rate_bps", srcValue)}},
	KindDrop:          {leadLink, []member{mem("cause", srcCause), mem("bytes", srcBytes)}},
	KindQueueDepth:    {leadLink, []member{mem("bytes", srcBytes)}},
	KindRetransmit:    {leadFlowSF, []member{mem("bytes", srcBytes)}},
	KindRTOBackoff:    {leadFlowSF, []member{mem("rto_s", srcValue), mem("consec", srcAuxInt)}},
	KindSubflowDown:   {leadFlowSF, nil},
	KindSubflowUp:     {leadFlowSF, nil},
	KindSchedPick:     {leadFlowSF, []member{mem("bytes", srcBytes)}},
	KindRunStart:      {leadNone, []member{mem("seed", srcBytes), mem("horizon_s", srcValue)}},
	KindRunEnd:        {leadNone, nil},
	KindReorder:       {leadLink, []member{mem("bytes", srcBytes), mem("early_s", srcValue)}},
	KindDuplicate:     {leadLink, []member{mem("bytes", srcBytes)}},
	KindAckCompress:   {leadLink, []member{mem("defer_s", srcValue)}},
	KindRackMark:      {leadFlowSF, []member{mem("bytes", srcBytes), mem("reo_wnd_s", srcValue)}},
	KindSpuriousRetx:  {leadFlowSF, []member{mem("bytes", srcBytes), mem("rto", srcAuxInt)}},
	KindShaperDelay:   {leadLink, []member{mem("bytes", srcBytes), mem("delay_s", srcValue)}},
	KindHandover:      {leadLink, []member{mem("rate_bps", srcValue), mem("delay_s", srcAux)}},
	KindRTTSample:     {leadFlowSF, []member{mem("rtt_s", srcValue)}},
	KindSessionOpen:   {leadFlow, []member{mem("link", srcLink), mem("bytes", srcBytes), mem("active", srcAuxInt)}},
	KindSessionClose:  {leadFlow, []member{mem("link", srcLink), mem("state", srcState), mem("fct_s", srcValue), mem("bytes", srcBytes), mem("active", srcAuxInt)}},
	KindSessionReject: {leadFlow, []member{mem("link", srcLink), mem("state", srcState), mem("attempt", srcAuxInt)}},
	KindSessionRetry:  {leadFlow, []member{mem("delay_s", srcValue), mem("attempt", srcAuxInt)}},
}

// lineRoom is the free space below which a sink that batches lines in a
// fixed buffer (JSONLWriter, HashSink) empties it: several times an ordinary
// line, so encoding does not regrow the buffer. A longer line grows it once
// and leaves with the rest.
const lineRoom = 512

// lineEncoder renders events as JSONL lines. It remembers the digits of the
// last timestamp and the prefixes of recently seen sources; both are pure
// caches, so every encoder — and the nil encoder, which remembers nothing —
// produces the same bytes for the same event. Not safe for concurrent use.
type lineEncoder struct {
	at       sim.Time
	headLen  int
	head     [len(`{"t":`) + 20]byte // `{"t":` + at's digits
	prefixes hotCache[[]byte]
}

func (enc *lineEncoder) appendEvent(b []byte, e *Event) []byte {
	if enc == nil {
		b = strconv.AppendInt(append(b, `{"t":`...), int64(e.At), 10)
	} else {
		if e.At != enc.at || enc.headLen == 0 {
			enc.at = e.At
			enc.headLen = len(strconv.AppendInt(append(enc.head[:0], `{"t":`...), int64(e.At), 10))
		}
		b = append(b, enc.head[:enc.headLen]...)
	}
	if e.Kind >= numKinds {
		return append(b, `,"kind":"unknown"}`+"\n"...)
	}
	lay := &layouts[e.Kind]
	key := hotKey{kind: uint8(e.Kind)}
	switch lay.lead {
	case leadFlowSF:
		key.name, key.sf = e.Flow, e.Subflow
	case leadFlow:
		key.name = e.Flow
	case leadLink:
		key.name = e.Link
	}
	if enc == nil {
		b = appendPrefix(b, lay, key)
	} else {
		p := enc.prefixes.get(key)
		if p == nil {
			p = enc.prefixes.claim(key)
			*p = appendPrefix((*p)[:0], lay, key) // the evicted prefix's storage is reused
		}
		b = append(b, *p...)
	}
	for i := range lay.members {
		mb := &lay.members[i]
		if i > 0 {
			b = append(b, mb.sep...)
		}
		switch mb.src {
		case srcLink:
			b = appendJSONString(b, e.Link)
		case srcState:
			b = appendJSONString(b, e.State)
		case srcCause:
			b = appendJSONString(b, e.Cause.String())
		case srcBytes:
			b = strconv.AppendInt(b, e.Bytes, 10)
		case srcAuxInt:
			b = strconv.AppendInt(b, int64(e.Aux), 10)
		case srcValue:
			b = appendNsFloat(b, e.Value)
		case srcAux:
			b = appendNsFloat(b, e.Aux)
		}
	}
	return append(b, '}', '\n')
}

// appendPrefix renders what follows the timestamp up to and including the
// first member's key: `,"kind":"rtt-sample","flow":"mp","sf":0,"rtt_s":`.
func appendPrefix(b []byte, lay *layout, key hotKey) []byte {
	b = append(b, `,"kind":"`...)
	b = append(b, kindNames[key.kind]...)
	b = append(b, '"')
	switch lay.lead {
	case leadFlow, leadFlowSF:
		b = appendJSONString(append(b, `,"flow":`...), key.name)
		if lay.lead == leadFlowSF {
			b = strconv.AppendInt(append(b, `,"sf":`...), int64(key.sf), 10)
		}
	case leadLink:
		b = appendJSONString(append(b, `,"link":`...), key.name)
	}
	if len(lay.members) > 0 {
		b = append(b, lay.members[0].sep...)
	}
	return b
}

// appendJSONString writes v as a JSON string. Names in this codebase are
// plain ASCII; anything needing escapes takes the slow path through the
// standard encoder.
func appendJSONString(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			enc, _ := json.Marshal(v)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, v...)
	return append(b, '"')
}

// appendNsFloat appends v exactly as strconv.AppendFloat(b, v, 'g', -1, 64)
// does. Most floats in a trace are durations that began as integer
// nanoseconds (sim.Time.Seconds), and those are formatted from the integer:
// when v == float64(n)/1e9 for an integer 1e5 <= n < 1e15, n·10⁻⁹ is a
// decimal of at most 15 significant digits whose nearest double is v, and
// since distinct decimals of that length never share a double it is also the
// shortest decimal that reads back as v — strconv's answer, which in
// [1e-4, 1e6) 'g' prints in positional form. Everything else (rates,
// utilities, negatives, NaN and ±Inf, sub-100 µs and ≥ 1e6 values) goes to
// strconv.
func appendNsFloat(b []byte, v float64) []byte {
	if v >= 1e-4 && v < 1e6 {
		if n := int64(v*1e9 + 0.5); float64(n)/1e9 == v {
			b = strconv.AppendInt(b, n/1e9, 10)
			if frac := n % 1e9; frac != 0 {
				dot := len(b)
				b = strconv.AppendInt(b, 1e9+frac, 10) // a 1, then frac's nine zero-padded digits
				b[dot] = '.'
				for b[len(b)-1] == '0' {
					b = b[:len(b)-1]
				}
			}
			return b
		}
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
