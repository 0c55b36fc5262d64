package topo

import (
	"math/rand"
	"reflect"
	"testing"

	"mpcc/internal/fairness"
	"mpcc/internal/netem"
	"mpcc/internal/sim"
)

func TestCanonicalTopologiesWellFormed(t *testing.T) {
	all := []*Topology{Fig3a(), Fig3b(), Fig3c(), Fig3d(), Fig3e(), Fig4a(), Fig4b()}
	for _, tp := range all {
		eng := sim.NewEngine(1)
		n := tp.Build(eng)
		if len(n.LinkNames()) != len(tp.Links) {
			t.Fatalf("%s: built %d links, want %d", tp.Name, len(n.LinkNames()), len(tp.Links))
		}
		for _, f := range tp.Flows {
			for _, pathNames := range f.Paths {
				p := n.Path(pathNames...)
				for _, l := range p.Links() {
					if l.Rate() != DefaultRate {
						t.Fatalf("%s/%s: %s at %v", tp.Name, f.Name, l.Name, l.Rate())
					}
				}
				if p.BaseRTT() != 2*DefaultDelay*sim.Time(len(pathNames)) {
					t.Fatalf("%s/%s: base RTT %v", tp.Name, f.Name, p.BaseRTT())
				}
			}
		}
		if tp.ParallelLinkNet != nil {
			if err := tp.ParallelLinkNet.Validate(); err != nil {
				t.Fatalf("%s: parallel-link net invalid: %v", tp.Name, err)
			}
			if len(tp.ParallelLinkNet.Conns) != len(tp.Flows) {
				t.Fatalf("%s: fairness net has %d conns, topology %d flows",
					tp.Name, len(tp.ParallelLinkNet.Conns), len(tp.Flows))
			}
			if _, err := fairness.LMMF(tp.ParallelLinkNet); err != nil {
				t.Fatalf("%s: LMMF failed: %v", tp.Name, err)
			}
		}
	}
}

func TestConvergenceSuiteIsFig10Set(t *testing.T) {
	suite := ConvergenceSuite()
	if len(suite) != 5 {
		t.Fatalf("suite has %d topologies, want 5", len(suite))
	}
	want := map[string]bool{
		"3a-single-link-MP-SP": true, "3c-two-links-MP-SP": true,
		"3d-two-links-MP-SP-SP": true, "3e-two-MP": true, "4b-LIA-ring": true,
	}
	for _, tp := range suite {
		if !want[tp.Name] {
			t.Fatalf("unexpected topology %s", tp.Name)
		}
	}
}

func TestNetHelpers(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewNet(eng)
	n.AddLink("a", 50e6, 10*sim.Millisecond, 1000)
	n.AddDefaultLink("b")
	if n.TotalCapacity() != 150e6 {
		t.Fatalf("TotalCapacity = %v", n.TotalCapacity())
	}
	p := n.Path("a", "b")
	if a, b := p.Links()[0].Rate(), p.Links()[1].Rate(); a != 50e6 || b != DefaultRate {
		t.Fatalf("rates = %v, %v", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate link should panic")
		}
	}()
	n.AddLink("a", 1, 0, 0)
}

func TestNetUnknownLinkPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewNet(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown link should panic")
		}
	}()
	n.Link("nope")
}

// buildClos instantiates the default fabric the way exp.Run does: links at
// the paper defaults, then the fabric's Tweak.
func buildClos() (Clos, *Net) {
	var c Clos
	n := c.Topology().Build(sim.NewEngine(1))
	c.Tweak(n)
	return c, n
}

func TestClosPaths(t *testing.T) {
	c, n := buildClos()
	// Cross-ToR path traverses 4 links.
	if p := n.Path(c.Path(0, 1, 0)...); len(p.Links()) != 4 {
		t.Fatalf("cross-ToR path has %d links, want 4", len(p.Links()))
	}
	// Same-ToR hosts (0 and 4 with 4 ToRs) bypass the spine.
	if p := n.Path(c.Path(0, 4, 1)...); len(p.Links()) != 2 {
		t.Fatalf("same-ToR path has %d links, want 2", len(p.Links()))
	}
}

func TestClosECMPSpreadsSubflows(t *testing.T) {
	c, _ := buildClos()
	if paths := c.SubflowPaths(0, 1, 3); len(paths) != 3 {
		t.Fatalf("got %d paths", len(paths))
	}
	// With 2 spines and 3 subflows, at least 2 distinct spine paths must be
	// used across (src,dst) pairs in aggregate.
	distinct := make(map[int]bool)
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			if src == dst {
				continue
			}
			for i := 0; i < 3; i++ {
				distinct[c.ECMPSpine(src, dst, i)] = true
			}
		}
	}
	if len(distinct) < 2 {
		t.Fatal("ECMP never uses the second spine")
	}
}

func TestClosCapacity(t *testing.T) {
	_, n := buildClos()
	wantLinks := float64(6+6+4*2*2) * n.Link("h0-up").Rate()
	if n.TotalCapacity() != wantLinks {
		t.Fatalf("TotalCapacity = %v, want %v", n.TotalCapacity(), wantLinks)
	}
}

// TestClosMatchesImperativeBuilder pins the declarative fabric against what
// the engine-bound builder it replaced produced: the 28 links in creation
// order (the order probes are wired in, so part of every fig19 trace), their
// parameters, and the ECMP paths of one host pair.
func TestClosMatchesImperativeBuilder(t *testing.T) {
	c, n := buildClos()
	want := []string{
		"h0-up", "h0-down", "h1-up", "h1-down", "h2-up", "h2-down",
		"h3-up", "h3-down", "h4-up", "h4-down", "h5-up", "h5-down",
		"tor0-spine0", "spine0-tor0", "tor0-spine1", "spine1-tor0",
		"tor1-spine0", "spine0-tor1", "tor1-spine1", "spine1-tor1",
		"tor2-spine0", "spine0-tor2", "tor2-spine1", "spine1-tor2",
		"tor3-spine0", "spine0-tor3", "tor3-spine1", "spine1-tor3",
	}
	if got := n.LinkNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("links = %q\nwant    %q", got, want)
	}
	for _, name := range want {
		l := n.Link(name)
		if d := n.Path(name).PropDelay(); l.Rate() != 250e6 || d != 20*sim.Microsecond || l.Buffer() != 150_000 {
			t.Fatalf("%s: rate %v delay %v buffer %d", name, l.Rate(), d, l.Buffer())
		}
	}
	// (0, 1) hashes all three subflows onto spine 1; (0, 4) share a ToR.
	cross := []string{"h0-up", "tor0-spine1", "spine1-tor1", "h1-down"}
	if got := c.SubflowPaths(0, 1, 3); !reflect.DeepEqual(got, [][]string{cross, cross, cross}) {
		t.Fatalf("SubflowPaths(0,1,3) = %q", got)
	}
	if p := n.Path(cross...); p.PropDelay() != 80*sim.Microsecond || p.BaseRTT() != 160*sim.Microsecond {
		t.Fatalf("cross-ToR path: prop %v rtt %v", p.PropDelay(), p.BaseRTT())
	}
	local := []string{"h0-up", "h4-down"}
	if got := c.SubflowPaths(0, 4, 3); !reflect.DeepEqual(got, [][]string{local, local, local}) {
		t.Fatalf("SubflowPaths(0,4,3) = %q", got)
	}
}

// buildWANPair instantiates a pair the way exp.Run does: links at the paper
// defaults, the pair's Tweak, then one path per subflow through PathTweak.
func buildWANPair(server, home string, rng *rand.Rand) (wp *WANPair, n *Net, wifi, cell *netem.Path) {
	wp = NewWANPair(server, home, rng)
	n = wp.Topo.Build(sim.NewEngine(3))
	wp.Tweak(n)
	paths := wp.Topo.Flows[0].Paths
	wifi, cell = n.Path(paths[0]...), n.Path(paths[1]...)
	wp.PathTweak(wifi)
	wp.PathTweak(cell)
	return wp, n, wifi, cell
}

func TestWANPairAllPairs(t *testing.T) {
	for _, home := range Homes {
		for _, server := range Servers {
			wp, _, wifi, cell := buildWANPair(server, home, rand.New(rand.NewSource(1)))
			if wifi.BaseRTT() <= 0 || cell.BaseRTT() <= 0 {
				t.Fatalf("%s→%s: zero RTT", server, home)
			}
			// Cellular must be the higher-latency, lossier interface.
			if cell.BaseRTT() <= wifi.BaseRTT() {
				t.Fatalf("%s→%s: cell RTT %v ≤ wifi %v", server, home, cell.BaseRTT(), wifi.BaseRTT())
			}
			if wp.acc[1].loss <= wp.acc[0].loss {
				t.Fatalf("%s→%s: cell loss not higher", server, home)
			}
		}
	}
}

// TestWANPairMatchesImperativeBuilder pins all 18 pairs, drawn from
// rand.NewSource(1), against what the engine-bound builder the value
// replaced produced: per access link the rate, delay and buffer, the loss
// drawn for it, and per path the forward propagation delay (access delay +
// WAN extra delay).
func TestWANPairMatchesImperativeBuilder(t *testing.T) {
	type access struct {
		rate  float64
		delay sim.Time
		buf   int
		loss  float64
		prop  sim.Time // of the path over it
	}
	// The draw order is WAN delay, WiFi rate, cell rate, cell loss, so pairs
	// of one home share the three access draws and differ in the WAN's.
	homes := map[string][2]access{
		"Israel":   {{4.528610905654015e+07, 3e6, 256000, 0.0001, 0}, {2.6234200399138678e+07, 15e6, 768000, 0.0029439427684682822, 25e6}},
		"Boston":   {{9.05722181130803e+07, 3e6, 384000, 0.0001, 0}, {3.672788055879415e+07, 15e6, 1000000, 0.001962628512312188, 20e6}},
		"Illinois": {{6.792916358481021e+07, 3e6, 320000, 0.0001, 0}, {3.1481040478966415e+07, 15e6, 900000, 0.002453285640390235, 22e6}},
	}
	wifiProp := map[string]sim.Time{ // server-home → WiFi path's forward delay, ns
		"Ohio-Israel": 80354856, "SaoPaulo-Israel": 116453789, "London-Israel": 39098933,
		"Tokyo-Israel": 116453789, "Frankfurt-Israel": 33941942, "NorthCalifornia-Israel": 95825827,
		"Ohio-Boston": 18470971, "SaoPaulo-Boston": 80354856, "London-Boston": 49412913,
		"Tokyo-Boston": 95825827, "Frankfurt-Boston": 54569904, "NorthCalifornia-Boston": 44255923,
		"Ohio-Illinois": 11251184, "SaoPaulo-Illinois": 85511846, "London-Illinois": 54569904,
		"Tokyo-Illinois": 90668837, "Frankfurt-Illinois": 59726894, "NorthCalifornia-Illinois": 33941942,
	}
	for _, home := range Homes {
		for _, server := range Servers {
			pair := server + "-" + home
			wp, n, wifi, cell := buildWANPair(server, home, rand.New(rand.NewSource(1)))
			if got, want := n.LinkNames(), []string{pair + "-wifi", pair + "-cell"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: links %q, want %q", pair, got, want)
			}
			want := homes[home]
			want[0].prop = wifiProp[pair]
			// The cell path carries the home's extra cellular delay and the
			// 12 ms its access link is slower than WiFi's.
			want[1].prop += wifiProp[pair] + 12*sim.Millisecond
			for i, p := range []*netem.Path{wifi, cell} {
				l := p.Links()[0]
				got := access{l.Rate(), n.Path(l.Name).PropDelay(), l.Buffer(), wp.acc[i].loss, p.PropDelay()}
				if got != want[i] {
					t.Errorf("%s subflow %d: %+v, want %+v", pair, i, got, want[i])
				}
				if p.BaseRTT() != 2*p.PropDelay() {
					t.Errorf("%s subflow %d: base RTT %v is not twice the forward delay %v", pair, i, p.BaseRTT(), p.PropDelay())
				}
			}
		}
	}
}

func TestWANPairDistanceOrdering(t *testing.T) {
	// Without jitter, Tokyo must be farther from Boston than Ohio.
	_, _, tokyo, _ := buildWANPair("Tokyo", "Boston", nil)
	_, _, ohio, _ := buildWANPair("Ohio", "Boston", nil)
	if tokyo.BaseRTT() <= ohio.BaseRTT() {
		t.Fatal("Tokyo should have a longer RTT than Ohio from Boston")
	}
}

func TestWANPairUnknownPanics(t *testing.T) {
	for _, tc := range []struct{ server, home string }{
		{"Narnia", "Boston"}, {"Ohio", "Atlantis"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWANPair(%s,%s) should panic", tc.server, tc.home)
				}
			}()
			NewWANPair(tc.server, tc.home, nil)
		}()
	}
}
