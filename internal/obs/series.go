package obs

import (
	"sort"
	"strconv"

	"mpcc/internal/sim"
	"mpcc/internal/stats"
)

// The windowed time-series layer: the registry folds rate-change, RTT-sample
// and queue-depth probes into fixed-width virtual-time windows, one
// stats.Series per (kind, label), starting at t=0. A window holds the sum and
// count of the samples that landed in it, so any consumer can render
// per-window means without a full JSONL trace — this is what `mpcctrace
// timeline` and `mpccbench -timeline` surface.
//
// Label rules (documented here and in DESIGN.md): rate and RTT series are
// labelled flow/sfN (per subflow); queue series are labelled by link name. A
// low-cardinality guard caps the distinct labels per kind at
// maxSeriesPerKind; samples for labels beyond the cap are counted on the
// "series.dropped" counter instead of growing memory without bound, which is
// the difference between telemetry and a leak when a scenario churns
// thousands of flows.

// maxSeriesPerKind is the low-cardinality guard: distinct labels per series
// kind before further labels are dropped (and counted).
const maxSeriesPerKind = 32

// seriesWindowCap pre-sizes each series' windows (~51 s from its first
// sample at the default width) so steady-state observation does not
// allocate.
const seriesWindowCap = 512

type seriesKind uint8

const (
	seriesRate seriesKind = iota
	seriesRTT
	seriesQueue

	numSeriesKinds
)

var seriesKindNames = [numSeriesKinds]string{"rate_bps", "rtt_s", "queue_bytes"}

// seriesID keys a series without building a label string on the hot path:
// name is the flow (rate/rtt) or link (queue), sf the subflow index (-1 for
// link-scoped series).
type seriesID struct {
	kind seriesKind
	name string
	sf   int32
}

// label renders the snapshot key, e.g. "rate_bps mp/sf0" or
// "queue_bytes link1". Called only at snapshot time.
func (id seriesID) label() string {
	if id.kind == seriesQueue {
		return seriesKindNames[id.kind] + " " + id.name
	}
	return seriesKindNames[id.kind] + " " + id.name + "/sf" + strconv.Itoa(int(id.sf))
}

// seriesStore is the registry's series table. front resolves the series of
// recent samples without hashing their names; m is the whole table. Labels
// past the guard are in neither, so dropping one costs a failed lookup in
// each and nothing more.
type seriesStore struct {
	window  sim.Time
	front   hotCache[*stats.Series]
	m       map[seriesID]*stats.Series
	perKind [numSeriesKinds]int
	dropped *Counter
}

func newSeriesStore(window sim.Time, dropped *Counter) *seriesStore {
	return &seriesStore{window: window, m: make(map[seriesID]*stats.Series), dropped: dropped}
}

func (s *seriesStore) observe(id seriesID, at sim.Time, v float64) {
	key := hotKey{name: id.name, sf: id.sf, kind: uint8(id.kind)}
	p := s.front.get(key)
	if p == nil {
		sr, ok := s.m[id]
		if !ok {
			if s.perKind[id.kind] >= maxSeriesPerKind {
				s.dropped.Inc()
				return
			}
			s.perKind[id.kind]++
			sr = stats.SeriesOf(s.window, make([]stats.Bucket, 0, seriesWindowCap))
			s.m[id] = sr
		}
		p = s.front.claim(key)
		*p = sr
	}
	(*p).Add(at, v)
}

// snapshot freezes the store into the exported map form.
func (s *seriesStore) snapshot() map[string]*stats.Series {
	out := make(map[string]*stats.Series, len(s.m))
	for id, sr := range s.m {
		out[id.label()] = sr.Clone()
	}
	return out
}

// SortedSeriesKeys returns the series keys of m in lexical order.
func SortedSeriesKeys(m map[string]*stats.Series) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
