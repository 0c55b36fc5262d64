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

// LiveResult holds the Fig. 16/17 download times in seconds, one per (home,
// server, protocol) in that nesting order.
type LiveResult struct {
	FileBytes int64
	secs      []float64
}

// at is the download time of LiveProtocols[p] from topo.Servers[server] to
// topo.Homes[home].
func (r *LiveResult) at(home, server, p int) float64 {
	return r.secs[(home*len(topo.Servers)+server)*len(LiveProtocols)+p]
}

// LiveDownloads reproduces §7.3: timed file downloads from the six AWS
// regions to the three homes over synthetic WiFi+cellular paths (see
// topo.NewWANPair for the substitution), one simulation (× cfg.Reps) per
// (home, server, protocol). The default downloads 25 MB; with cfg.Full the
// paper's 75 MB.
func LiveDownloads(cfg Config) *LiveResult {
	fileBytes := int64(25_000_000)
	if cfg.Full {
		fileBytes = 75_000_000
	}
	var specs []Spec
	for _, home := range topo.Homes {
		for _, server := range topo.Servers {
			for _, p := range LiveProtocols {
				specs = append(specs, DownloadSpec(cfg.Seed, server, home, p, fileBytes))
			}
		}
	}
	secs := runSpecs(specs, cfg.Reps, func(r *Result) float64 {
		if fct := r.Flows["dl"].FCT; fct >= 0 {
			return fct.Seconds()
		}
		return downloadDeadline.Seconds() // did not finish
	})
	return &LiveResult{FileBytes: fileBytes, secs: secs}
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

// Fig16Table renders the download times to topo.Homes[home].
func (r *LiveResult) Fig16Table(home int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig 16 — download time of a %d MB file to %s, seconds", r.FileBytes/1_000_000, topo.Homes[home]),
		Header: append([]string{"server"}, protoNames(LiveProtocols)...),
	}
	for s, server := range topo.Servers {
		row := []string{server}
		for p := range LiveProtocols {
			row = append(row, fmt.Sprintf("%.1f", r.at(home, s, p)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig17Table renders mean performance normalized to MPCC-latency: for each
// protocol, mean over all (home, server) pairs of
// time(MPCC-latency)/time(protocol); higher is better, 1.0 is parity.
func (r *LiveResult) Fig17Table() *Table {
	t := &Table{
		Title:  "Fig 17 — mean download-speed gain of MPCC-latency over each protocol (ratio >1 ⇒ MPCC faster)",
		Header: []string{"protocol", "mean time ratio vs mpcc-latency"},
	}
	for p, proto := range LiveProtocols {
		sum, n := 0.0, 0
		for h := range topo.Homes {
			for s := range topo.Servers {
				ref := r.at(h, s, 0) // LiveProtocols[0] is MPCC-latency
				v := r.at(h, s, p)
				if ref > 0 && v > 0 {
					sum += v / ref // >1 means the protocol is slower than MPCC
					n++
				}
			}
		}
		t.AddRow(string(proto), fmt.Sprintf("%.2f", sum/float64(n)))
	}
	return t
}
