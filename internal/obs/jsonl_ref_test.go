package obs

import "strconv"

// refAppendEvent is the field-by-field encoder AppendEvent was before the
// line encoder replaced it, kept verbatim as the reference the differential
// tests (FuzzEncodeEvent, TestEncoderMatchesReference) hold the encoder to.
func refAppendEvent(b []byte, e Event) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(e.At), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	switch e.Kind {
	case KindMIDecision:
		b = refAppendFlowSF(b, e)
		b = refAppendStr(b, "state", e.State)
		b = refAppendFloat(b, "rate_bps", e.Value)
	case KindUtility:
		b = refAppendFlowSF(b, e)
		b = refAppendStr(b, "state", e.State)
		b = refAppendFloat(b, "rate_bps", e.Aux)
		b = refAppendFloat(b, "utility", e.Value)
	case KindRateChange:
		b = refAppendFlowSF(b, e)
		b = refAppendFloat(b, "rate_bps", e.Value)
	case KindDrop:
		b = refAppendStr(b, "link", e.Link)
		b = refAppendStr(b, "cause", e.Cause.String())
		b = refAppendInt(b, "bytes", e.Bytes)
	case KindQueueDepth:
		b = refAppendStr(b, "link", e.Link)
		b = refAppendInt(b, "bytes", e.Bytes)
	case KindRetransmit, KindSchedPick:
		b = refAppendFlowSF(b, e)
		b = refAppendInt(b, "bytes", e.Bytes)
	case KindRTOBackoff:
		b = refAppendFlowSF(b, e)
		b = refAppendFloat(b, "rto_s", e.Value)
		b = refAppendInt(b, "consec", int64(e.Aux))
	case KindSubflowDown, KindSubflowUp:
		b = refAppendFlowSF(b, e)
	case KindRunStart:
		b = refAppendInt(b, "seed", e.Bytes)
		b = refAppendFloat(b, "horizon_s", e.Value)
	case KindRunEnd:
		// t and kind only.
	case KindReorder:
		b = refAppendStr(b, "link", e.Link)
		b = refAppendInt(b, "bytes", e.Bytes)
		b = refAppendFloat(b, "early_s", e.Value)
	case KindDuplicate:
		b = refAppendStr(b, "link", e.Link)
		b = refAppendInt(b, "bytes", e.Bytes)
	case KindAckCompress:
		b = refAppendStr(b, "link", e.Link)
		b = refAppendFloat(b, "defer_s", e.Value)
	case KindRackMark:
		b = refAppendFlowSF(b, e)
		b = refAppendInt(b, "bytes", e.Bytes)
		b = refAppendFloat(b, "reo_wnd_s", e.Value)
	case KindSpuriousRetx:
		b = refAppendFlowSF(b, e)
		b = refAppendInt(b, "bytes", e.Bytes)
		b = refAppendInt(b, "rto", int64(e.Aux))
	case KindShaperDelay:
		b = refAppendStr(b, "link", e.Link)
		b = refAppendInt(b, "bytes", e.Bytes)
		b = refAppendFloat(b, "delay_s", e.Value)
	case KindHandover:
		b = refAppendStr(b, "link", e.Link)
		b = refAppendFloat(b, "rate_bps", e.Value)
		b = refAppendFloat(b, "delay_s", e.Aux)
	case KindRTTSample:
		b = refAppendFlowSF(b, e)
		b = refAppendFloat(b, "rtt_s", e.Value)
	case KindSessionOpen:
		b = refAppendStr(b, "flow", e.Flow)
		b = refAppendStr(b, "link", e.Link)
		b = refAppendInt(b, "bytes", e.Bytes)
		b = refAppendInt(b, "active", int64(e.Aux))
	case KindSessionClose:
		b = refAppendStr(b, "flow", e.Flow)
		b = refAppendStr(b, "link", e.Link)
		b = refAppendStr(b, "state", e.State)
		b = refAppendFloat(b, "fct_s", e.Value)
		b = refAppendInt(b, "bytes", e.Bytes)
		b = refAppendInt(b, "active", int64(e.Aux))
	case KindSessionReject:
		b = refAppendStr(b, "flow", e.Flow)
		b = refAppendStr(b, "link", e.Link)
		b = refAppendStr(b, "state", e.State)
		b = refAppendInt(b, "attempt", int64(e.Aux))
	case KindSessionRetry:
		b = refAppendStr(b, "flow", e.Flow)
		b = refAppendFloat(b, "delay_s", e.Value)
		b = refAppendInt(b, "attempt", int64(e.Aux))
	}
	return append(b, '}', '\n')
}

func refAppendFlowSF(b []byte, e Event) []byte {
	b = refAppendStr(b, "flow", e.Flow)
	b = append(b, `,"sf":`...)
	b = strconv.AppendInt(b, int64(e.Subflow), 10)
	return b
}

func refAppendStr(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return appendJSONString(b, v)
}

func refAppendInt(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return strconv.AppendInt(b, v, 10)
}

func refAppendFloat(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
