package exp

import (
	"reflect"
	"testing"
)

func faultRow(t *testing.T, rows []FaultRow, label string) FaultRow {
	t.Helper()
	for _, r := range rows {
		if r.Label == label {
			return r
		}
	}
	t.Fatalf("no row %q in %+v", label, rows)
	return FaultRow{}
}

func TestFaultRecoveryDeterministic(t *testing.T) {
	cfg := defaultConfig()
	a, s1, e1 := FaultRecoveryRows(cfg)
	b, s2, e2 := FaultRecoveryRows(cfg)
	if s1 != s2 || e1 != e2 {
		t.Fatalf("outage window differs across runs: [%v,%v] vs [%v,%v]", s1, e1, s2, e2)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different rows:\n%+v\n%+v", a, b)
	}
}

func TestFaultRecoveryAcceptance(t *testing.T) {
	rows, _, _ := FaultRecoveryRows(defaultConfig())

	mpcc := faultRow(t, rows, "mpcc-loss")
	if mpcc.Retention < 0.8 {
		t.Fatalf("MPCC retention %.2f, want ≥ 0.8 of pre-outage goodput", mpcc.Retention)
	}
	if mpcc.MigrateSec < 0 || mpcc.MigrateSec > 5 {
		t.Fatalf("MPCC time-to-migrate %.1fs, want within 5 virtual seconds", mpcc.MigrateSec)
	}
	if mpcc.RecoverSec < 0 || mpcc.RecoverSec > 5 {
		t.Fatalf("single-path probe revival took %.1fs after restore, want ≤ 5", mpcc.RecoverSec)
	}
	if mpcc.PostBps < 0.8*mpcc.PreBps {
		t.Fatalf("MPCC post-restore goodput %.1f Mbps below pre-outage %.1f",
			mpcc.PostBps/1e6, mpcc.PreBps/1e6)
	}

	// The detector is protocol-independent: the coupled MPTCP baselines must
	// also survive the outage without stalling.
	for _, label := range []string{"lia", "olia"} {
		r := faultRow(t, rows, label)
		if r.MigrateSec < 0 {
			t.Fatalf("%s never re-sustained 80%% of pre-outage goodput", label)
		}
	}

	// Without failure detection the finite receive buffer stalls the whole
	// connection on head-of-line blocking for the rest of the outage.
	nd := faultRow(t, rows, "mpcc-loss/no-detect")
	if nd.MigrateSec >= 0 {
		t.Fatalf("no-detect variant sustained goodput %.1fs into the outage — expected a stall",
			nd.MigrateSec)
	}
	if nd.OutageBps > 0.7*mpcc.OutageBps {
		t.Fatalf("no-detect outage goodput %.1f Mbps vs detected %.1f — stall contrast missing",
			nd.OutageBps/1e6, mpcc.OutageBps/1e6)
	}
}
