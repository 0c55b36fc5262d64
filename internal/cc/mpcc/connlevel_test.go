package mpcc

import (
	"math/rand"
	"testing"

	"mpcc/internal/cc"
	"mpcc/internal/sim"
)

// driveConnLevel feeds the connection-level controller a fluid 2-parallel-
// link model for the given number of MIs per subflow.
func driveConnLevel(cl *ConnLevel, caps []float64, n int) {
	miDur := 30 * sim.Millisecond
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		rates := make([]float64, cl.d)
		for j := 0; j < cl.d; j++ {
			rates[j] = cl.Subflow(j).NextRate(now, miDur)
		}
		for j := 0; j < cl.d; j++ {
			loss := 0.0
			if rates[j] > caps[j] {
				loss = 1 - caps[j]/rates[j]
			}
			sent := int(rates[j] * miDur.Seconds() / 8)
			st := cc.MIStats{
				Index: i, Start: now, End: now + miDur,
				TargetRate: rates[j], SendRate: rates[j],
				BytesSent: sent, BytesLost: int(float64(sent) * loss),
				LossRate: loss, Goodput: rates[j] * (1 - loss),
			}
			st.BytesAcked = st.BytesSent - st.BytesLost
			cl.Subflow(j).OnMIComplete(st)
		}
		now += miDur
	}
}

func TestConnLevelConvergesOnTwoLinks(t *testing.T) {
	cl := NewConnLevel(DefaultConfig(LossParams()), 2)
	if len(cl.rates) != 2 || cl.rates[0] != 2e6 || cl.rates[1] != 2e6 {
		t.Fatalf("initial rates = %v, want the 2 Mbps default on both subflows", cl.rates)
	}
	driveConnLevel(cl, []float64{100e6, 100e6}, 3000)
	rates := cl.rates
	total := (rates[0] + rates[1]) / 1e6
	if total < 140 || total > 230 {
		t.Fatalf("connection-level total = %.1f Mbps, want ≈200 (rates %v)", total, rates)
	}
}

func TestConnLevelSlowerThanPerSubflow(t *testing.T) {
	// Obstacle II/III: count MIs until 80% utilization of two 100 Mbps
	// links, connection-level vs per-subflow MPCC. The per-subflow design
	// must get there first.
	target := 160e6

	cl := NewConnLevel(DefaultConfig(LossParams()), 2)
	clMIs := -1
	{
		miDur := 30 * sim.Millisecond
		now := sim.Time(0)
		for i := 0; i < 4000; i++ {
			r0 := cl.Subflow(0).NextRate(now, miDur)
			r1 := cl.Subflow(1).NextRate(now, miDur)
			if r0+r1 >= target && clMIs < 0 {
				clMIs = i
				break
			}
			for j, r := range []float64{r0, r1} {
				loss := 0.0
				if r > 100e6 {
					loss = 1 - 100e6/r
				}
				sent := int(r * miDur.Seconds() / 8)
				st := cc.MIStats{Index: i, Start: now, End: now + miDur,
					TargetRate: r, SendRate: r, BytesSent: sent,
					BytesLost: int(float64(sent) * loss), LossRate: loss, Goodput: r * (1 - loss)}
				st.BytesAcked = st.BytesSent - st.BytesLost
				cl.Subflow(j).OnMIComplete(st)
			}
			now += miDur
		}
	}

	grp := NewGroup()
	sub0 := New(DefaultConfig(LossParams()), grp, rand.New(rand.NewSource(1)))
	sub1 := New(DefaultConfig(LossParams()), grp, rand.New(rand.NewSource(1)))
	psMIs := -1
	{
		miDur := 30 * sim.Millisecond
		now := sim.Time(0)
		for i := 0; i < 4000; i++ {
			r0 := sub0.NextRate(now, miDur)
			r1 := sub1.NextRate(now, miDur)
			if r0+r1 >= target && psMIs < 0 {
				psMIs = i
				break
			}
			for j, pair := range []struct {
				c *Controller
				r float64
			}{{sub0, r0}, {sub1, r1}} {
				loss := 0.0
				if pair.r > 100e6 {
					loss = 1 - 100e6/pair.r
				}
				sent := int(pair.r * miDur.Seconds() / 8)
				st := cc.MIStats{Index: i, Start: now, End: now + miDur,
					TargetRate: pair.r, SendRate: pair.r, BytesSent: sent,
					BytesLost: int(float64(sent) * loss), LossRate: loss, Goodput: pair.r * (1 - loss)}
				st.BytesAcked = st.BytesSent - st.BytesLost
				pair.c.OnMIComplete(st)
				_ = j
			}
			now += miDur
		}
	}
	if psMIs < 0 {
		t.Fatal("per-subflow MPCC never reached 80% utilization")
	}
	if clMIs >= 0 && clMIs < psMIs {
		t.Fatalf("connection-level reached target in %d MIs, per-subflow needed %d — ablation inverted", clMIs, psMIs)
	}
}

func TestConnLevelInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewConnLevel(DefaultConfig(UtilityParams{Alpha: 2, Beta: 0, Gamma: 0}), 2)
}
