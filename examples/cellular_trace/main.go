// Trace-driven cellular link: the LTE interface's bandwidth follows a
// looping recorded trace (deep fades and recoveries) while WiFi stays
// stable. Shows MPCC re-apportioning traffic across subflows as conditions
// change — the Fig. 7 behaviour on a realistic access pattern — against
// MPTCP-LIA on identical paths.
//
// The trace is the small CSV format of mpcc.ParseBWTrace
// ("time_s,rate_mbps" rows); pass your own recording with -trace, and
// shorten or lengthen the run with -dur:
//
//	go run ./examples/cellular_trace -trace lte_drive.csv -dur 60s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mpcc"
)

// defaultTrace is a 12-second synthetic LTE bandwidth recording: a deep
// fade to 3 Mbit/s and back. It stands in for a drive-test capture when no
// -trace file is given.
const defaultTrace = `time_s,rate_mbps
0,40
2,25
4,8
5,3
6,12
8,35
10,45
`

func run(proto mpcc.Protocol, tr *mpcc.BWTrace, dur mpcc.Time) (aggregate, wifiShare float64) {
	eng := mpcc.NewEngine(5)
	net := mpcc.NewNetwork(eng)
	net.AddLink("wifi", 30e6, 12*mpcc.Millisecond, 256_000)
	lte := net.AddLink("lte", 40e6, 35*mpcc.Millisecond, 600_000)
	lte.SetLoss(0.002)
	lte.ScheduleRates(tr.Points, tr.Duration()) // loop the recording for the whole run

	conn := mpcc.NewConnection(eng, string(proto), proto,
		[]*mpcc.Path{net.Path("wifi"), net.Path("lte")}, mpcc.AttachOptions{})
	conn.SetApp(mpcc.Bulk{}, nil)
	conn.Start(0)
	eng.Run(dur)

	from, to := dur/6, dur // skip startup transient
	agg := conn.MeanGoodputBps(from, to) / 1e6
	sfs := conn.Subflows()
	w := 8 * sfs[0].Goodput().MeanRateSince(from, to) / 1e6
	return agg, w / agg
}

func main() {
	tracePath := flag.String("trace", "", "bandwidth trace CSV (time_s,rate_mbps); empty = built-in 12 s LTE fade")
	dur := flag.Duration("dur", 36*time.Second, "simulated run length")
	flag.Parse()

	tr, err := mpcc.ParseBWTraceString(defaultTrace)
	if *tracePath != "" {
		var f *os.File
		if f, err = os.Open(*tracePath); err == nil {
			tr, err = mpcc.ParseBWTrace(f)
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cellular_trace:", err)
		os.Exit(1)
	}

	horizon := mpcc.Time(dur.Nanoseconds())
	fmt.Printf("WiFi 30 Mbps stable + LTE on a fading trace (max %.0f Mbps, %.0f s loop), %v run\n",
		tr.MaxRate()/1e6, tr.Duration().Seconds(), *dur)
	for _, proto := range []mpcc.Protocol{mpcc.MPCCLatency, mpcc.MPCCLoss, mpcc.LIA, mpcc.OLIA} {
		agg, ws := run(proto, tr, horizon)
		fmt.Printf("  %-13s aggregate %6.1f Mbps  (%.0f%% via WiFi)\n", proto, agg, ws*100)
	}
	fmt.Println("\na perfect aggregator would reach WiFi + the trace's running average")
}
