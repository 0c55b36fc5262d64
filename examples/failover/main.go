// Failover demo: a bulk MPCC download over WiFi + LTE while the WiFi link
// blacks out mid-run. With the transport's failure detector the connection
// migrates the dead path's unacked data to LTE within a few backed-off RTOs
// and probes WiFi back to life after the outage; with the detector disabled
// the finite receive buffer head-of-line-stalls the whole connection until
// the backed-off retransmission finally gets through.
package main

import (
	"fmt"

	"mpcc"
)

const (
	outageStart = 8 * mpcc.Second
	outageDur   = 6 * mpcc.Second
	runFor      = 24 * mpcc.Second
)

// run downloads over WiFi+LTE with a mid-run WiFi outage and returns the
// per-second goodput timeline plus the finished connection.
func run(name string, opts ...mpcc.ConnOption) ([]float64, *mpcc.Connection) {
	eng := mpcc.NewEngine(11)
	net := mpcc.NewNetwork(eng)
	net.AddLink("wifi", 80e6, 10*mpcc.Millisecond, 300_000)
	net.AddLink("lte", 25e6, 35*mpcc.Millisecond, 500_000)
	net.Link("wifi").Outage(outageStart, outageDur)

	ao := mpcc.AttachOptions{ConnOptions: append(
		[]mpcc.ConnOption{mpcc.WithRcvBuf(4096 * 1500)}, opts...)}
	conn := mpcc.NewConnection(eng, name, mpcc.MPCCLoss,
		[]*mpcc.Path{net.Path("wifi"), net.Path("lte")}, ao)
	conn.SetApp(mpcc.Bulk{}, nil)
	conn.Start(0)

	var series []float64
	prev := int64(0)
	for t := mpcc.Second; t <= runFor; t += mpcc.Second {
		eng.At(t, func() {
			acked := conn.AckedBytes()
			series = append(series, float64(acked-prev)*8/1e6)
			prev = acked
		})
	}
	eng.Run(runFor)
	return series, conn
}

func printTimeline(label string, series []float64) {
	fmt.Printf("%s\n", label)
	for i, mbps := range series {
		marker := ""
		switch {
		case mpcc.Time(i+1)*mpcc.Second == outageStart:
			marker = "  << wifi down"
		case mpcc.Time(i+1)*mpcc.Second == outageStart+outageDur:
			marker = "  << wifi back"
		}
		fmt.Printf("  t=%2ds  %6.1f Mbps  %s%s\n", i+1, mbps, bar(mbps), marker)
	}
}

func bar(mbps float64) string {
	n := int(mbps / 4)
	if n > 30 {
		n = 30
	}
	out := ""
	for i := 0; i < n; i++ {
		out += "#"
	}
	return out
}

func main() {
	fmt.Printf("bulk MPCC-loss over wifi (80 Mbps) + lte (25 Mbps); wifi outage %v–%v\n\n",
		outageStart, outageStart+outageDur)

	series, conn := run("detect")
	printTimeline("with failure detection (default):", series)
	wifi := conn.Subflows()[0]
	fmt.Printf("\n  wifi subflow: failed %d time(s) at %v, revived by probe at %v\n\n",
		wifi.Fails(), wifi.LastFailureAt(), wifi.LastRevivalAt())

	series, _ = run("no-detect", mpcc.WithFailThreshold(0))
	printTimeline("without detection (WithFailThreshold(0)):", series)
	fmt.Println("\n  unacked holes on the dead wifi path stall the finite receive",
		"\n  buffer until the exponentially backed-off RTO retransmits through.")
}
