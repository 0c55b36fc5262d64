package exp

import (
	"fmt"
	"sync"
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
)

func churnTestConfig() Config {
	return Config{Duration: 4 * sim.Second, Warmup: 0, Reps: 1, Seed: 42}
}

func TestChurnLedgerBalances(t *testing.T) {
	for _, rho := range []float64{0.6, 2.0} {
		res := Run(ChurnSpecAt(churnTestConfig(), rho))
		st := res.Churn
		if st == nil {
			t.Fatal("no churn stats on a churn run")
		}
		if st.Accepted != st.Completed+st.Aborted+st.Active {
			t.Fatalf("rho=%v: accepted %d != completed %d + aborted %d + active %d",
				rho, st.Accepted, st.Completed, st.Aborted, st.Active)
		}
		if st.Arrivals == 0 || st.Completed == 0 {
			t.Fatalf("rho=%v: degenerate run: %+v", rho, st)
		}
		if st.Leaks != 0 {
			t.Fatalf("rho=%v: %d of %d drain checks found leaked pool buffers",
				rho, st.Leaks, st.LeakChecks)
		}
		if st.LeakChecks == 0 {
			t.Fatalf("rho=%v: no drain checks ran", rho)
		}
		for _, sv := range st.Servers {
			if sv.PeakBytes > sv.BudgetBytes {
				t.Fatalf("rho=%v: server %s peak %d exceeded budget %d",
					rho, sv.Name, sv.PeakBytes, sv.BudgetBytes)
			}
			if sv.PeakActive > sv.MaxConns {
				t.Fatalf("rho=%v: server %s peak conns %d exceeded cap %d",
					rho, sv.Name, sv.PeakActive, sv.MaxConns)
			}
		}
	}
}

func TestChurnOverloadSheds(t *testing.T) {
	res := Run(ChurnSpecAt(churnTestConfig(), 2.0))
	st := res.Churn
	if st.Rejected == 0 || st.Retried == 0 {
		t.Fatalf("2x overload shed nothing: rejected=%d retried=%d", st.Rejected, st.Retried)
	}
	if st.PeakActive > churnNumServers*churnMaxConns {
		t.Fatalf("peak active %d exceeded farm-wide cap %d",
			st.PeakActive, churnNumServers*churnMaxConns)
	}
}

// TestChurnDeterminism pins the workload to the run seed: identical for any
// worker count and any Shards value (churn forces the legacy engine), and
// sensitive to the seed.
func TestChurnDeterminism(t *testing.T) {
	cfg := churnTestConfig()
	base := Run(ChurnSpecAt(cfg, 1.3)).Churn

	// Two of it at once on the pool read as the one run alone.
	var mu sync.Mutex
	var par []string
	runSpecs(Config{Workers: 2}, []Spec{ChurnSpecAt(cfg, 1.3), ChurnSpecAt(cfg, 1.3)}, func(r *Result) []float64 {
		mu.Lock()
		par = append(par, churnScalar(r.Churn))
		mu.Unlock()
		return nil
	})
	if len(par) != 2 {
		t.Fatalf("reduced %d runs, want 2", len(par))
	}
	for _, st := range par {
		if st != churnScalar(base) {
			t.Fatalf("worker count changed churn stats:\n%s\nvs\n%+v", st, *base)
		}
	}

	sharded := ChurnSpecAt(cfg, 1.3)
	sharded.Shards = 4
	sh := Run(sharded).Churn
	if churnScalar(sh) != churnScalar(base) {
		t.Fatalf("Shards changed churn stats:\n%+v\nvs\n%+v", sh, base)
	}

	reseeded := ChurnSpecAt(cfg, 1.3)
	reseeded.Seed += 7
	if churnScalar(Run(reseeded).Churn) == churnScalar(base) {
		t.Fatal("different seed produced identical churn stats")
	}
}

// churnScalar renders the full stats (per-server ledgers and FCT
// percentiles included) for identity comparison.
func churnScalar(st *ChurnStats) string {
	return fmt.Sprintf("%+v", *st)
}

// TestChurnObsMetrics checks the registry picks up the session events and
// that its ledger agrees with the driver's.
func TestChurnObsMetrics(t *testing.T) {
	spec := ChurnSpecAt(churnTestConfig(), 1.3)
	spec.Probes = obs.NewBus()
	res := Run(spec)
	st := res.Churn
	if res.Obs == nil {
		t.Fatal("no obs snapshot")
	}
	for want, name := range map[int]string{
		st.Accepted:  "sessions.accepted",
		st.Rejected:  "sessions.rejected",
		st.Retried:   "sessions.retried",
		st.Completed: "sessions.completed",
		st.Aborted:   "sessions.aborted",
	} {
		if got := int(res.Obs.Counters[name]); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := int(res.Obs.Gauges["conns.active_peak"]); got != st.PeakActive {
		t.Errorf("conns.active_peak = %d, want %d", got, st.PeakActive)
	}
	if got := res.Obs.Histograms["session_fct_seconds"].Count; got != st.Completed {
		t.Errorf("session_fct_seconds count = %d, want %d", got, st.Completed)
	}
}

// TestChurnQueueTiers is the regression guard for the event core's two
// tiers: under overload the standing timer population — pacing and ACK
// returns, and the backed-off RTOs, watchdogs and churn timers a lap or more
// out — waits in the wheel (3 306 at the high-water mark), and the imminent
// heap, the one every pop sifts, holds a drained slot's worth (15).
func TestChurnQueueTiers(t *testing.T) {
	cfg := churnTestConfig()
	cfg.Duration = 2 * sim.Second
	spec := ChurnSpecAt(cfg, 1.3)
	spec.Probes = obs.NewBus()
	res := Run(spec)
	q := res.Queue
	if q.ImminentMax > 64 || q.WheelMax < 1000 {
		t.Fatalf("imminent high-water %d (want <= 64), wheel high-water %d (want >= 1000): %+v",
			q.ImminentMax, q.WheelMax, q)
	}
	for name, want := range map[string]int{
		"sim.max_pending_imminent": q.ImminentMax,
		"sim.max_pending_wheel":    q.WheelMax,
	} {
		if got := int(res.Obs.Gauges[name]); got != want {
			t.Errorf("gauge %s = %d, want %d", name, got, want)
		}
	}
}

// churnRig builds spec's world and churn driver as Run does, but schedules
// no arrivals: the caller opens sessions on server 0 with open.
func churnRig(spec Spec) (d *churnDriver, eng *sim.Engine, open func(size int64) *transport.Connection) {
	net, engines := topo.PartitionLinks(spec.Topo.Links, [][][]string{{spec.Topo.Links}}).Build(spec.Topo, spec.Seed)
	w := newWorld(spec.Seed, nil, 0, engines)
	rig := spec
	rig.Duration = 0 // the first arrival lands past a zero horizon
	d = startChurn(w, &rig, net)
	d.horizon = spec.Duration
	open = func(size int64) *transport.Connection {
		s := d.newSession()
		s.name, s.sv, s.size = fmt.Sprintf("t%d", d.stats.Accepted), &d.servers[0], size
		d.attempt(s)
		return s.conn
	}
	return d, engines[0], open
}

// TestChurnAuditCountsConnectionStillOut closes a session while its
// records are still out — every acknowledgement sits on a 2 s reverse path
// when the handshake watchdog aborts it — and audits it 200 ms later: one
// leak.
func TestChurnAuditCountsConnectionStillOut(t *testing.T) {
	spec := ChurnSpecAt(Config{Seed: 3, Duration: 3 * sim.Second}, 1.0)
	spec.Churn.HandshakeTimeout = 300 * sim.Millisecond
	spec.Churn.DrainCheckAfter = 200 * sim.Millisecond
	d, eng, open := churnRig(spec)
	for _, p := range d.servers[0].paths {
		p.SetAckDelay(2 * sim.Second)
	}
	conn := open(1 << 20)
	gen := conn.Generation()
	eng.Run(spec.Duration)
	st := d.snapshot()
	if st.Aborted != 1 || st.LeakChecks != 1 {
		t.Fatalf("want one aborted session and one audit, got %+v", st)
	}
	if st.Leaks != 1 {
		t.Fatalf("a connection closed with its acknowledgements in flight audited %d leaks, want 1", st.Leaks)
	}
	if conn.Generation() == gen {
		t.Fatal("the connection never went home once its acknowledgements arrived")
	}
}

// TestChurnAuditSkipsReusedConnection closes a small session, lets its
// connection drain and go home, and opens a large session on that same
// connection before the small one's audit fires: the audit must see that
// its connection went home (the generation moved) instead of reading the
// large session's records, which are out.
func TestChurnAuditSkipsReusedConnection(t *testing.T) {
	spec := ChurnSpecAt(Config{Seed: 3, Duration: 3 * sim.Second}, 1.0)
	spec.Churn.DrainCheckAfter = 500 * sim.Millisecond
	d, eng, open := churnRig(spec)
	small := open(30e3)
	gen := small.Generation()
	for small.Generation() == gen {
		if !eng.Step() {
			t.Fatal("the small session's connection never went home")
		}
	}
	// The session started at 0 and closed on completion, at its FCT.
	auditAt := small.FCT() + spec.Churn.DrainCheckAfter
	if d.stats.Completed != 1 || d.stats.LeakChecks != 1 || eng.Now() >= auditAt {
		t.Fatalf("the small session should be done with its audit pending at %v (now %v): %+v", auditAt, eng.Now(), d.stats)
	}
	if large := open(8 << 20); large != small {
		t.Fatal("the large session did not get the small one's connection")
	}
	eng.Run(auditAt - 1)
	if recs, _ := small.PoolInUse(); recs == 0 || small.FCT() >= 0 {
		t.Fatalf("the large session has no records out at the audit (fct=%v)", small.FCT())
	}
	eng.Run(spec.Duration)
	if st := d.snapshot(); st.Leaks != 0 {
		t.Fatalf("the audit of a connection that went home counted %d leaks in %d audits", st.Leaks, st.LeakChecks)
	}
}
