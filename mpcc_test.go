package mpcc_test

import (
	"testing"

	"mpcc"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	eng := mpcc.NewEngine(42)
	net := mpcc.NewNetwork(eng)
	net.AddLink("wifi", 80e6, 15*mpcc.Millisecond, 375_000)
	net.AddLink("lte", 30e6, 40*mpcc.Millisecond, 750_000)

	conn := mpcc.NewConnection(eng, "dl", mpcc.MPCCLatency,
		[]*mpcc.Path{net.Path("wifi"), net.Path("lte")}, mpcc.AttachOptions{})
	conn.SetApp(mpcc.Bulk{}, nil)
	conn.Start(0)
	eng.Run(10 * mpcc.Second)

	g := conn.MeanGoodputBps(4*mpcc.Second, 10*mpcc.Second) / 1e6
	if g < 60 || g > 115 {
		t.Fatalf("aggregated goodput = %.1f Mbps, want ≈ 80+27", g)
	}
}

func TestFacadeFileTransfer(t *testing.T) {
	eng := mpcc.NewEngine(1)
	net := mpcc.NewNetwork(eng)
	net.AddLink("l", 100e6, 10*mpcc.Millisecond, 375_000)
	conn := mpcc.NewConnection(eng, "f", mpcc.Cubic,
		[]*mpcc.Path{net.Path("l")}, mpcc.AttachOptions{})
	var done mpcc.Time = -1
	conn.SetApp(mpcc.NewFile(2_000_000), func(fct mpcc.Time) { done = fct })
	conn.Start(0)
	eng.Run(30 * mpcc.Second)
	if done <= 0 {
		t.Fatal("file never completed through the facade")
	}
}

func TestFacadeLMMF(t *testing.T) {
	alloc, err := mpcc.LMMF(&mpcc.ParallelLinkNetwork{
		Capacity: []float64{100, 100, 100},
		Conns:    [][]int{{0}, {0, 1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Totals[0] < 99 || alloc.Totals[1] < 199 {
		t.Fatalf("Fig. 1 LMMF = %v, want [100 200]", alloc.Totals)
	}
}

func TestFacadeClos(t *testing.T) {
	eng := mpcc.NewEngine(1)
	clos := mpcc.Clos{Cfg: mpcc.DefaultClosConfig()}
	net := clos.Topology().Build(eng)
	clos.Tweak(net)
	paths := net.Paths(clos.SubflowPaths(0, 1, 3))
	if len(paths) != 3 {
		t.Fatalf("got %d paths", len(paths))
	}
	conn := mpcc.NewConnection(eng, "dc", mpcc.MPCCLoss, paths, mpcc.AttachOptions{InitialRateBps: 50e6})
	conn.SetApp(mpcc.NewFile(1_000_000), nil)
	conn.Start(0)
	eng.Run(mpcc.Second)
	if conn.FCT() < 0 {
		t.Fatal("1 MB flow did not finish on the fabric within 1s")
	}
}
