package obs

import (
	"sort"
	"strconv"

	"mpcc/internal/sim"
)

// The windowed time-series layer: the registry folds rate-change, RTT-sample
// and queue-depth probes into fixed-width virtual-time windows, one series
// per (kind, label). A window holds the sum and count of the samples that
// landed in it, so any consumer can render per-window means without a full
// JSONL trace — this is what `mpcctrace timeline` and `mpccbench -timeline`
// surface.
//
// Label rules (documented here and in DESIGN.md): rate and RTT series are
// labelled flow/sfN (per subflow); queue series are labelled by link name. A
// low-cardinality guard caps the distinct labels per kind at
// maxSeriesPerKind; samples for labels beyond the cap are counted on the
// "series.dropped" counter instead of growing memory without bound, which is
// the difference between telemetry and a leak when a scenario churns
// thousands of flows.

// DefaultSeriesWindow is the window width the registry uses unless
// SetSeriesWindow overrides it before the first event.
const DefaultSeriesWindow = 100 * sim.Millisecond

// maxSeriesPerKind is the low-cardinality guard: distinct labels per series
// kind before further labels are dropped (and counted).
const maxSeriesPerKind = 32

// seriesWindowCap pre-sizes each series' window slices (~51 s at the default
// width) so steady-state observation does not allocate.
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

type seriesAcc struct {
	sum []float64
	cnt []int64
}

// seriesStore is the registry's series table. front resolves the series of
// recent samples without hashing their names; m is the whole table. Labels
// past the guard are in neither, so dropping one costs a failed lookup in
// each and nothing more.
type seriesStore struct {
	window  sim.Time
	front   hotCache[*seriesAcc]
	m       map[seriesID]*seriesAcc
	perKind [numSeriesKinds]int
	dropped *Counter
}

func newSeriesStore(window sim.Time, dropped *Counter) *seriesStore {
	return &seriesStore{window: window, m: make(map[seriesID]*seriesAcc), dropped: dropped}
}

func (s *seriesStore) observe(id seriesID, at sim.Time, v float64) {
	key := hotKey{name: id.name, sf: id.sf, kind: uint8(id.kind)}
	p := s.front.get(key)
	if p == nil {
		acc, ok := s.m[id]
		if !ok {
			if s.perKind[id.kind] >= maxSeriesPerKind {
				s.dropped.Inc()
				return
			}
			s.perKind[id.kind]++
			acc = &seriesAcc{
				sum: make([]float64, 0, seriesWindowCap),
				cnt: make([]int64, 0, seriesWindowCap),
			}
			s.m[id] = acc
		}
		p = s.front.claim(key)
		*p = acc
	}
	acc := *p
	idx := int(at / s.window)
	for len(acc.sum) <= idx {
		acc.sum = append(acc.sum, 0)
		acc.cnt = append(acc.cnt, 0)
	}
	acc.sum[idx] += v
	acc.cnt[idx]++
}

// SeriesData is one windowed series in a Snapshot: per-window sample sums
// and counts from t=0 in Window-wide windows. Windows with Count 0 saw no
// samples (render them blank, not zero).
type SeriesData struct {
	Window sim.Time
	Sum    []float64
	Count  []int64
}

// Mean returns window i's mean sample value and whether the window had any.
func (sd *SeriesData) Mean(i int) (float64, bool) {
	if i < 0 || i >= len(sd.Count) || sd.Count[i] == 0 {
		return 0, false
	}
	return sd.Sum[i] / float64(sd.Count[i]), true
}

// Windows returns the number of windows the series spans.
func (sd *SeriesData) Windows() int { return len(sd.Count) }

func (sd *SeriesData) clone() *SeriesData {
	return &SeriesData{
		Window: sd.Window,
		Sum:    append([]float64(nil), sd.Sum...),
		Count:  append([]int64(nil), sd.Count...),
	}
}

// merge adds other's windows elementwise, extending to the longer span.
func (sd *SeriesData) merge(other *SeriesData) {
	for len(sd.Sum) < len(other.Sum) {
		sd.Sum = append(sd.Sum, 0)
		sd.Count = append(sd.Count, 0)
	}
	for i := range other.Sum {
		sd.Sum[i] += other.Sum[i]
		sd.Count[i] += other.Count[i]
	}
}

// snapshot freezes the store into the exported map form.
func (s *seriesStore) snapshot() map[string]*SeriesData {
	out := make(map[string]*SeriesData, len(s.m))
	for id, acc := range s.m {
		out[id.label()] = &SeriesData{
			Window: s.window,
			Sum:    append([]float64(nil), acc.sum...),
			Count:  append([]int64(nil), acc.cnt...),
		}
	}
	return out
}

// SortedSeriesKeys returns the series keys of m in lexical order.
func SortedSeriesKeys(m map[string]*SeriesData) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
