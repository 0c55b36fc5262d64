package netem_test

import (
	"fmt"
	"slices"
	"testing"

	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

// TestLinkSchedulesOnItsOwnEngine puts a link on the second engine of a
// two-cluster partition and drives every scheduled change on it: each must
// fire at its exact instant on the link's engine, and none may land on the
// first engine (the net's default), which would mutate the link from
// another shard's event stream.
func TestLinkSchedulesOnItsOwnEngine(t *testing.T) {
	tp := topo.Clusters(2)
	net, engines := topo.PartitionTopology(tp).Build(tp, 1)
	l, eng := net.Link("c1link1"), engines[1]
	if l.Engine() != eng || eng == engines[0] {
		t.Fatal("c1link1 does not live on the second engine")
	}
	// With no buffer every probe packet drops at admission, so a probe
	// schedules nothing and its drop reason reads the link's state.
	l.SetBuffer(0)
	probe := netem.NewPath(eng, "probe", l)

	ms := sim.Millisecond
	l.Outage(1000*ms, 1000*ms)
	l.Flaps(3000*ms, 2, 100*ms, 400*ms)
	l.BurstLoss(4000*ms, 1000*ms, netem.GilbertElliott{PGoodBad: 1, LossBad: 1})
	l.ScheduleRates([]netem.RatePoint{{At: 6000 * ms, RateBps: 20e6}, {At: 7000 * ms, RateBps: 30e6}}, 0)
	l.ScheduleHandovers([]netem.HandoverStep{{RateBps: 40e6, Delay: 50 * ms}, {RateBps: 60e6, Delay: 5 * ms}},
		8000*ms, 1000*ms, 2)
	if n := engines[0].Pending(); n != 0 {
		t.Fatalf("the first engine holds %d events", n)
	}

	var got []string
	for eng.Step() {
		why := "not dropped"
		probe.Send(100, nil, nil, func(_ *netem.Packet, r obs.DropCause) { why = r.String() })
		got = append(got, fmt.Sprintf("%v %v %gMbps %v", eng.Now(), why, l.Rate()/1e6, probe.PropDelay()))
	}
	want := []string{
		"1s outage 100Mbps 30ms", "2s queue-full 100Mbps 30ms",
		"3s outage 100Mbps 30ms", "3.1s queue-full 100Mbps 30ms",
		"3.5s outage 100Mbps 30ms", "3.6s queue-full 100Mbps 30ms",
		"4s burst 100Mbps 30ms", "5s queue-full 100Mbps 30ms",
		"6s queue-full 20Mbps 30ms", "7s queue-full 30Mbps 30ms",
		"8s queue-full 40Mbps 50ms", "9s queue-full 60Mbps 5ms",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("link changes on its engine:\n got %q\nwant %q", got, want)
	}
	if st := l.Stats(); st.Outages != 3 || st.Handovers != 2 {
		t.Fatalf("stats %+v, want 3 outages and 2 handovers", st)
	}
}
