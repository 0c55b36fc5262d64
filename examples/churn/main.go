// Open-loop churn under overload: sessions arrive on a Poisson clock with
// heavy-tailed (bounded-Pareto) object sizes and do not slow down when the
// servers saturate — the servers must shed them. Two accept points sit
// behind 100 Mbps links, each with a connection cap and a shared
// receive-buffer byte budget; rejected clients retry on a capped
// exponential backoff with deterministic jitter. The run is swept at
// offered loads from below saturation to 2× past it, printing the session
// ledger at each point — the interesting read is the goodput column
// holding (graceful degradation) while rejects absorb the overload.
//
//	go run ./examples/churn -dur 10s
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"mpcc"
)

const (
	maxConns    = 48        // per-server concurrent-connection cap
	budgetBytes = 12 << 20  // per-server shared receive-buffer budget
	rcvBuf      = 256 << 10 // per-connection receive buffer
	maxRetries  = 4
)

// ledger tallies one load point's session outcomes.
type ledger struct {
	arrivals, accepted, rejected, retried, abandoned int
	completed, aborted                               int
	completedBytes                                   int64
}

type server struct {
	sv   *mpcc.Server
	path *mpcc.Path
}

func runLoad(rho float64, dur mpcc.Time) ledger {
	eng := mpcc.NewEngine(42)
	net := mpcc.NewNetwork(eng)
	servers := make([]server, 2)
	for i := range servers {
		link := fmt.Sprintf("srv%d", i)
		net.AddLink(link, 100e6, 15*mpcc.Millisecond, 375_000)
		servers[i] = server{
			sv:   mpcc.NewServer(link, maxConns, budgetBytes),
			path: net.Path(link),
		}
	}

	// Offered load ρ is measured against the 2×100 Mbps farm capacity:
	// λ = ρ · capacity / mean object size.
	sizes := mpcc.BoundedPareto{Alpha: 1.3, Min: 30e3, Max: 30e6}
	lambda := rho * 2 * 100e6 / 8 / sizes.Mean()
	arrivals := mpcc.NewPoissonArrivals(43, lambda)
	backoff := mpcc.Backoff{Base: 50 * mpcc.Millisecond, Cap: 2 * mpcc.Second}
	rng := rand.New(rand.NewSource(44))

	var led ledger
	nextID := 0

	var attempt func(k int, size int64, try int)
	attempt = func(k int, size int64, try int) {
		s := servers[k]
		if s.sv.Admit(rcvBuf) != mpcc.AdmitOK {
			led.rejected++
			if try >= maxRetries {
				led.abandoned++
				return
			}
			delay := backoff.Delay(rng, try)
			if eng.Now()+delay >= dur {
				led.abandoned++
				return
			}
			led.retried++
			eng.At(eng.Now()+delay, func() { attempt(k, size, try+1) })
			return
		}
		led.accepted++
		nextID++
		conn := mpcc.NewConnection(eng, fmt.Sprintf("sess%d", nextID), mpcc.MPCCLoss,
			[]*mpcc.Path{s.path}, mpcc.AttachOptions{ConnOptions: []mpcc.ConnOption{
				mpcc.WithRcvBuf(rcvBuf),
				mpcc.WithHandshakeTimeout(3 * mpcc.Second),
				mpcc.WithIdleTimeout(5 * mpcc.Second),
			}})
		conn.SetOnClose(func(reason mpcc.CloseReason, _ mpcc.Time) {
			s.sv.Release(rcvBuf)
			if reason == mpcc.CloseDone {
				led.completed++
				led.completedBytes += conn.AckedBytes()
			} else {
				led.aborted++
			}
		})
		conn.SetApp(mpcc.NewFile(size), func(mpcc.Time) { conn.Close() })
		conn.Start(eng.Now())
	}

	var chain func(now mpcc.Time)
	chain = func(now mpcc.Time) {
		next := arrivals.Next(now)
		if next >= dur {
			return
		}
		eng.At(next, func() {
			led.arrivals++
			attempt(rng.Intn(len(servers)), int64(sizes.Sample(rng)), 0)
			chain(next)
		})
	}
	chain(0)
	eng.Run(dur)
	return led
}

func main() {
	durFlag := flag.Duration("dur", 30*time.Second, "simulated run length per load point")
	flag.Parse()
	dur := mpcc.Time(durFlag.Nanoseconds())

	fmt.Printf("open-loop churn over 2×100 Mbps, %v per point (caps: %d conns, %d MB budget per server)\n",
		*durFlag, maxConns, budgetBytes>>20)
	fmt.Printf("%5s %9s %9s %9s %9s %9s %9s %9s %9s\n",
		"rho", "arrivals", "accepted", "rejected", "retried", "abandon", "complete", "aborted", "Mbps")
	for _, rho := range []float64{0.6, 1.0, 1.3, 2.0} {
		led := runLoad(rho, dur)
		goodput := 8 * float64(led.completedBytes) / dur.Seconds() / 1e6
		fmt.Printf("%5.1f %9d %9d %9d %9d %9d %9d %9d %9.1f\n",
			rho, led.arrivals, led.accepted, led.rejected, led.retried,
			led.abandoned, led.completed, led.aborted, goodput)
	}
	fmt.Println("\npast saturation the ledger sheds (rejected/abandoned grow) while goodput holds.")
}
