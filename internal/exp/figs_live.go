package exp

import (
	"fmt"
	"math/rand"

	"mpcc/internal/sim"
	"mpcc/internal/topo"
)

// LiveProtocols is the Fig. 16 lineup. "cubic" and "bbr" run uncoupled
// single-path controllers on each of the two interfaces, as in the paper.
var LiveProtocols = []Protocol{MPCCLatency, MPCCLoss, LIA, OLIA, Balia, WVegas, Cubic, BBR}

// liveDownloads declares Fig. 16 for one home of §7.3: timed file downloads
// from the six AWS regions over synthetic WiFi+cellular paths (see
// topo.NewWANPair for the substitution), one simulation (× replicates) per
// (server, protocol), the download time in seconds in each cell. The default
// downloads 25 MB; with cfg.Full the paper's 75 MB.
func liveDownloads(cfg Config, home string) sweep[string] {
	fileBytes := int64(25_000_000)
	if cfg.Full {
		fileBytes = 75_000_000
	}
	return sweep[string]{
		head: []string{"server"}, rows: topo.Servers,
		label:  func(server string) []string { return []string{server} },
		protos: LiveProtocols,
		spec: func(server string, p Protocol) Spec {
			return DownloadSpec(cfg.Seed, server, home, p, fileBytes)
		},
		metrics: []metric{{
			title:  fmt.Sprintf("Fig 16 — download time of a %d MB file to %s, seconds", fileBytes/1_000_000, home),
			format: "%.1f",
			value: func(r *Result) float64 {
				if fct := r.Flows["dl"].FCT; fct >= 0 {
					return fct.Seconds()
				}
				return downloadDeadline.Seconds() // did not finish
			},
		}},
	}
}

const downloadDeadline = 20 * 60 * sim.Second // generous

// DownloadSpec declares one timed download of §7.3: protocol p fetches
// fileBytes from server to home over the pair's WiFi and cellular paths,
// flow "dl". The run ends when the file completes — FlowResult.FCT is the
// download time — or at the 20-minute deadline.
func DownloadSpec(seed int64, server, home string, p Protocol, fileBytes int64) Spec {
	// The WAN draw must be identical across protocols and seeds for a fair
	// race, so it uses its own generator derived from the pair, not the
	// engine's.
	pair := topo.NewWANPair(server, home, rand.New(rand.NewSource(hashPair(server, home))))
	return Spec{
		Seed: seed, Duration: downloadDeadline, Topo: pair.Topo, Tweak: pair.Tweak,
		Flows: []FlowSpec{{Name: "dl", Proto: p, Paths: pair.Topo.Flows[0].Paths,
			FileBytes: fileBytes, PathTweak: pair.PathTweak}},
	}
}

func hashPair(server, home string) int64 {
	h := int64(1469598103934665603)
	for _, c := range server + "|" + home {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// Fig17Table runs every home's downloads and renders mean performance
// normalized to MPCC-latency: for each protocol, mean over all (home,
// server) pairs of time(protocol)/time(MPCC-latency); 1.0 is parity.
func Fig17Table(cfg Config) *Table {
	t := &Table{
		Title:  "Fig 17 — mean download-speed gain of MPCC-latency over each protocol (ratio >1 ⇒ MPCC faster)",
		Header: []string{"protocol", "mean time ratio vs mpcc-latency"},
	}
	sums, n := make([]float64, len(LiveProtocols)), 0
	for _, home := range topo.Homes {
		for _, row := range liveDownloads(cfg, home).tables(cfg)[0].Vals {
			secs := row[1:] // the server, then one column per protocol
			n++
			for p, v := range secs {
				sums[p] += v / secs[0] // LiveProtocols[0] is MPCC-latency; >1 means slower than it
			}
		}
	}
	for p, proto := range LiveProtocols {
		t.addRow([]string{string(proto)}, numCell("%.2f", sums[p]/float64(n)))
	}
	return t
}
