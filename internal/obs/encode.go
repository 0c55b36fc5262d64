package obs

import (
	"encoding/json"
	"strconv"

	"mpcc/internal/sim"
)

// The probe-kind table and the JSONL line encoder. A line is `{"t":` + the
// timestamp's digits, then `,"kind":"…"`, the members the kind leads with
// (flow and sf, or link), and the kind's remaining members in layouts order.
// Everything up to and including the first remaining member's key depends
// only on (kind, name, subflow), and a run emits millions of lines from a few
// dozen such sources — so an encoder renders that prefix once per source and
// afterwards writes a line as timestamp + one prefix copy + values + `}\n`.

// lead says which members follow "kind" and key a line's prefix.
type lead uint8

const (
	leadNone   lead = iota // run-scoped: nothing
	leadFlow               // flow
	leadFlowSF             // flow, sf
	leadLink               // link
)

// source says which Event field supplies a member's value, and how it is
// rendered and parsed.
type source uint8

const (
	srcFlow   source = iota // Flow, string
	srcSF                   // Subflow, integer
	srcLink                 // Link, string
	srcState                // State, string
	srcCause                // Cause's name, string
	srcBytes                // Bytes, integer
	srcAuxInt               // Aux truncated to an integer (parsed back as a float)
	srcValue                // Value, float
	srcAux                  // Aux, float
)

// member is one JSON member after "kind": its pre-rendered `,"key":` and the
// source of its value.
type member struct {
	sep string
	src source
}

func mem(key string, src source) member { return member{`,"` + key + `":`, src} }

// key returns the member's JSON key.
func (m member) key() string { return m.sep[2 : len(m.sep)-2] }

// leadMembers are the members each lead puts between "kind" and a kind's own.
var leadMembers = [...][]member{
	leadNone:   nil,
	leadFlow:   {mem("flow", srcFlow)},
	leadFlowSF: {mem("flow", srcFlow), mem("sf", srcSF)},
	leadLink:   {mem("link", srcLink)},
}

// layout is the one description of a probe kind: its wire name, its lead and
// its own members in line order, and the Registry counter every event of the
// kind increments ("" for none). Kind.String, KindFromString, the line
// encoder, ParseEvent and Registry.record all read it, so a new kind costs
// one row here plus one typed emit helper on Bus.
type layout struct {
	name    string
	lead    lead
	members []member
	counter string
}

var layouts = [numKinds]layout{
	KindMIDecision:    {"mi-decision", leadFlowSF, []member{mem("state", srcState), mem("rate_bps", srcValue)}, ""},
	KindUtility:       {"utility", leadFlowSF, []member{mem("state", srcState), mem("rate_bps", srcAux), mem("utility", srcValue)}, ""},
	KindRateChange:    {"rate-change", leadFlowSF, []member{mem("rate_bps", srcValue)}, "rate_changes"},
	KindDrop:          {"drop", leadLink, []member{mem("cause", srcCause), mem("bytes", srcBytes)}, "drops.total"},
	KindQueueDepth:    {"queue-depth", leadLink, []member{mem("bytes", srcBytes)}, ""},
	KindRetransmit:    {"retransmit", leadFlowSF, []member{mem("bytes", srcBytes)}, "retransmits"},
	KindRTOBackoff:    {"rto-backoff", leadFlowSF, []member{mem("rto_s", srcValue), mem("consec", srcAuxInt)}, "rto_episodes"},
	KindSubflowDown:   {"subflow-down", leadFlowSF, nil, "subflow_downs"},
	KindSubflowUp:     {"subflow-up", leadFlowSF, nil, "subflow_ups"},
	KindSchedPick:     {"sched-pick", leadFlowSF, []member{mem("bytes", srcBytes)}, "sched_picks"},
	KindRunStart:      {"run-start", leadNone, []member{mem("seed", srcBytes), mem("horizon_s", srcValue)}, ""},
	KindRunEnd:        {"run-end", leadNone, nil, ""},
	KindReorder:       {"reorder", leadLink, []member{mem("bytes", srcBytes), mem("early_s", srcValue)}, "reorders"},
	KindDuplicate:     {"duplicate", leadLink, []member{mem("bytes", srcBytes)}, "duplicates"},
	KindAckCompress:   {"ack-compress", leadLink, []member{mem("defer_s", srcValue)}, "ack_compressions"},
	KindRackMark:      {"rack-mark", leadFlowSF, []member{mem("bytes", srcBytes), mem("reo_wnd_s", srcValue)}, "rack_marks"},
	KindSpuriousRetx:  {"spurious-retx", leadFlowSF, []member{mem("bytes", srcBytes), mem("rto", srcAuxInt)}, "spurious_retx"},
	KindShaperDelay:   {"shaper-delay", leadLink, []member{mem("bytes", srcBytes), mem("delay_s", srcValue)}, "shaper_delays"},
	KindHandover:      {"handover", leadLink, []member{mem("rate_bps", srcValue), mem("delay_s", srcAux)}, "handovers"},
	KindRTTSample:     {"rtt-sample", leadFlowSF, []member{mem("rtt_s", srcValue)}, ""},
	KindSessionOpen:   {"session-open", leadFlow, []member{mem("link", srcLink), mem("bytes", srcBytes), mem("active", srcAuxInt)}, ""},
	KindSessionClose:  {"session-close", leadFlow, []member{mem("link", srcLink), mem("state", srcState), mem("fct_s", srcValue), mem("bytes", srcBytes), mem("active", srcAuxInt)}, ""},
	KindSessionReject: {"session-reject", leadFlow, []member{mem("link", srcLink), mem("state", srcState), mem("attempt", srcAuxInt)}, ""},
	KindSessionRetry:  {"session-retry", leadFlow, []member{mem("delay_s", srcValue), mem("attempt", srcAuxInt)}, ""},
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
	if enc == nil {
		b = appendPrefix(b, e)
	} else {
		key := hotKey{kind: uint8(e.Kind)}
		switch lay.lead {
		case leadFlowSF:
			key.name, key.sf = e.Flow, e.Subflow
		case leadFlow:
			key.name = e.Flow
		case leadLink:
			key.name = e.Link
		}
		p := enc.prefixes.get(key)
		if p == nil {
			p = enc.prefixes.claim(key)
			*p = appendPrefix((*p)[:0], e) // the evicted prefix's storage is reused
		}
		b = append(b, *p...)
	}
	for i := range lay.members {
		mb := &lay.members[i]
		if i > 0 {
			b = append(b, mb.sep...)
		}
		b = appendValue(b, mb.src, e)
	}
	return append(b, '}', '\n')
}

// appendPrefix renders what follows the timestamp up to and including the
// first member's key: `,"kind":"rtt-sample","flow":"mp","sf":0,"rtt_s":`.
func appendPrefix(b []byte, e *Event) []byte {
	lay := &layouts[e.Kind]
	b = append(b, `,"kind":"`...)
	b = append(b, lay.name...)
	b = append(b, '"')
	for _, mb := range leadMembers[lay.lead] {
		b = appendValue(append(b, mb.sep...), mb.src, e)
	}
	if len(lay.members) > 0 {
		b = append(b, lay.members[0].sep...)
	}
	return b
}

// appendValue renders the value of e's field src.
func appendValue(b []byte, src source, e *Event) []byte {
	switch src {
	case srcFlow:
		return appendJSONString(b, e.Flow)
	case srcSF:
		return strconv.AppendInt(b, int64(e.Subflow), 10)
	case srcLink:
		return appendJSONString(b, e.Link)
	case srcState:
		return appendJSONString(b, e.State)
	case srcCause:
		return appendJSONString(b, e.Cause.String())
	case srcBytes:
		return strconv.AppendInt(b, e.Bytes, 10)
	case srcAuxInt:
		return strconv.AppendInt(b, int64(e.Aux), 10)
	case srcValue:
		return appendNsFloat(b, e.Value)
	default: // srcAux
		return appendNsFloat(b, e.Aux)
	}
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
