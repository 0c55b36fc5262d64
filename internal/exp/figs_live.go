package exp

import (
	"fmt"
	"math/rand"

	"mpcc/internal/netem"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
)

// LiveProtocols is the Fig. 16 lineup. "cubic" and "bbr" run uncoupled
// single-path controllers on each of the two interfaces, as in the paper.
var LiveProtocols = []Protocol{MPCCLatency, MPCCLoss, LIA, OLIA, Balia, WVegas, Cubic, BBR}

// LiveResult holds the Fig. 16/17 download times in seconds, keyed by
// home → server → protocol.
type LiveResult struct {
	FileBytes int64
	Times     map[string]map[string]map[Protocol]float64
}

// LiveDownloads reproduces §7.3: timed file downloads from the six AWS
// regions to the three homes over synthetic WiFi+cellular paths (see
// topo.BuildWAN for the substitution). The default downloads 25 MB; with
// cfg.Full the paper's 75 MB.
func LiveDownloads(cfg Config) *LiveResult {
	fileBytes := int64(25_000_000)
	if cfg.Full {
		fileBytes = 75_000_000
	}
	// Pre-enumerate the (home, server, protocol) matrix in loop order; each
	// cell is an independent set of downloads, so the cells run concurrently
	// and merge back into the nested maps in enumeration order.
	type cell struct {
		home, server string
		pi           int
	}
	var jobs []cell
	for _, home := range topo.Homes {
		for _, server := range topo.Servers {
			for pi := range LiveProtocols {
				jobs = append(jobs, cell{home, server, pi})
			}
		}
	}
	times := make([]float64, len(jobs))
	reps := replicates(cfg.Reps)
	RunParallel(len(jobs), func(i int) {
		j := jobs[i]
		// One WAN draw per (pair, protocol, rep); reps average.
		total := 0.0
		for rep := 0; rep < reps; rep++ {
			seed := cfg.Seed + int64(rep)*1000 + int64(j.pi)
			total += runDownload(seed, j.server, j.home, LiveProtocols[j.pi], fileBytes)
		}
		times[i] = total / float64(reps)
	})
	res := &LiveResult{FileBytes: fileBytes, Times: make(map[string]map[string]map[Protocol]float64)}
	for i, j := range jobs {
		hm := res.Times[j.home]
		if hm == nil {
			hm = make(map[string]map[Protocol]float64)
			res.Times[j.home] = hm
		}
		sm := hm[j.server]
		if sm == nil {
			sm = make(map[Protocol]float64)
			hm[j.server] = sm
		}
		sm[LiveProtocols[j.pi]] = times[i]
	}
	return res
}

func runDownload(seed int64, server, home string, p Protocol, fileBytes int64) float64 {
	const deadline = 20 * 60 * sim.Second // generous
	w := newWorld(seed, nil, 0)
	eng := w.engines[0]
	// The WAN draw must be identical across protocols for a fair race, so
	// it uses its own generator derived from the pair, not the engine's.
	wanRng := rand.New(rand.NewSource(hashPair(server, home)))
	pair := topo.BuildWAN(eng, server, home, wanRng)
	w.start(deadline, []*netem.Link{pair.WiFiLink, pair.CellLink})
	conn := w.attach("dl", p, []*netem.Path{pair.WiFi, pair.Cell}, AttachOptions{})
	var fct sim.Time = -1
	conn.SetApp(transport.NewFile(fileBytes), func(t sim.Time) { fct = t; eng.Stop() })
	conn.Start(0)
	w.run(deadline)
	if fct < 0 {
		return deadline.Seconds() // did not finish
	}
	return fct.Seconds()
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

// Fig16Table renders per-home download times.
func (r *LiveResult) Fig16Table(home string) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig 16 — download time of a %d MB file to %s, seconds", r.FileBytes/1_000_000, home),
		Header: append([]string{"server"}, protoNames(LiveProtocols)...),
	}
	for _, server := range topo.Servers {
		row := []string{server}
		for _, p := range LiveProtocols {
			row = append(row, fmt.Sprintf("%.1f", r.Times[home][server][p]))
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
	for _, p := range LiveProtocols {
		sum, n := 0.0, 0
		for _, home := range topo.Homes {
			for _, server := range topo.Servers {
				ref := r.Times[home][server][MPCCLatency]
				v := r.Times[home][server][p]
				if ref > 0 && v > 0 {
					sum += v / ref // >1 means the protocol is slower than MPCC
					n++
				}
			}
		}
		t.AddRow(string(p), fmt.Sprintf("%.2f", sum/float64(n)))
	}
	return t
}

// BenchDownload exposes a single synthetic-WAN download for the benchmark
// harness: it returns the download time in seconds.
func BenchDownload(seed int64, server, home string, p Protocol, bytes int64) float64 {
	return runDownload(seed, server, home, p, bytes)
}
