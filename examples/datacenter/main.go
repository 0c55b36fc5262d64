// Data-center demo (Fig. 18/19): multipath flows with ECMP-spread subflows
// on a 2-spine Clos fabric. Compares MPCC-latency and MPTCP-LIA flow
// completion times for one long and several short transfers.
package main

import (
	"fmt"
	"sort"

	"mpcc"
)

// fabric builds the Clos fabric on eng: the fabric names its links, the
// network builds them, and the fabric gives each its rate, delay and buffer.
func fabric(eng *mpcc.Engine) *mpcc.Network {
	var clos mpcc.Clos
	net := clos.Topology().Build(eng)
	clos.Tweak(net)
	return net
}

func run(proto mpcc.Protocol) (longFCT float64, shortFCTs []float64) {
	eng := mpcc.NewEngine(11)
	var clos mpcc.Clos // names each flow's ECMP paths
	net := fabric(eng)

	start := func(src, dst int, bytes int64, out *float64) *mpcc.Connection {
		conn := mpcc.NewConnection(eng, fmt.Sprintf("%s-%d-%d", proto, src, dst), proto,
			net.Paths(clos.SubflowPaths(src, dst, 3)), mpcc.AttachOptions{InitialRateBps: 50e6})
		conn.SetApp(mpcc.NewFile(bytes), func(fct mpcc.Time) { *out = fct.Seconds() })
		conn.Start(0)
		return conn
	}

	// One 10 MB background flow per host pair direction, plus 10 KB mice.
	start(0, 1, 10_000_000, &longFCT)
	start(2, 3, 10_000_000, new(float64))
	shortFCTs = make([]float64, 4)
	for i := range shortFCTs {
		start(i, (i+2)%6, 10_000, &shortFCTs[i])
	}
	eng.Run(5 * mpcc.Second)
	return longFCT, shortFCTs
}

func main() {
	fmt.Printf("Clos fabric (2 spines, 4 ToRs, %.0f Mbps links), 3 ECMP subflows per flow\n",
		fabric(mpcc.NewEngine(11)).Link("h0-up").Rate()/1e6)
	for _, proto := range []mpcc.Protocol{mpcc.MPCCLatency, mpcc.LIA} {
		long, shorts := run(proto)
		sort.Float64s(shorts)
		fmt.Printf("\n  %s:\n", proto)
		fmt.Printf("    10 MB flow FCT: %8.1f ms\n", long*1e3)
		fmt.Printf("    10 KB mice FCT: min %.2f ms, median %.2f ms, max %.2f ms\n",
			shorts[0]*1e3, (shorts[1]+shorts[2])/2*1e3, shorts[len(shorts)-1]*1e3)
	}
	fmt.Println("\nthis is a lightly loaded fabric; the paper's Fig. 19 runs the full")
	fmt.Println("congested workload — regenerate it with: go run ./cmd/mpccbench -exp fig19")
}
