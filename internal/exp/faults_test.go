package exp

import (
	"fmt"
	"math"
	"testing"
)

// The numeric columns of FaultRecovery's table, in Vals order.
const (
	fPre = 1 + iota // Mbps
	fOutage
	fRetention // percent
	fMigrate   // seconds, NaN: never
	fPost
	fSPPre
	fSPPost
	fRecover // seconds, NaN: never
)

// faultRow returns the numbers behind the fault table's row for label.
func faultRow(t *testing.T, tab *Table, label string) []float64 {
	t.Helper()
	for i, row := range tab.Rows {
		if row[0] == label {
			return tab.Vals[i]
		}
	}
	t.Fatalf("no row %q in %v", label, tab.Rows)
	return nil
}

func TestFaultRecoveryDeterministic(t *testing.T) {
	cfg := defaultConfig()
	a, b := FaultRecovery(cfg), FaultRecovery(cfg)
	if render(a) != render(b) || fmt.Sprint(a.Vals) != fmt.Sprint(b.Vals) {
		t.Fatalf("same seed produced different tables:\n%s%v\n%s%v", render(a), a.Vals, render(b), b.Vals)
	}
}

func TestFaultRecoveryAcceptance(t *testing.T) {
	tab := FaultRecovery(defaultConfig())

	mpcc := faultRow(t, tab, "mpcc-loss")
	if mpcc[fRetention] < 80 {
		t.Fatalf("MPCC retention %.0f%%, want ≥ 80%% of pre-outage goodput", mpcc[fRetention])
	}
	if m := mpcc[fMigrate]; !(m >= 0 && m <= 5) {
		t.Fatalf("MPCC time-to-migrate %.1fs, want within 5 virtual seconds", m)
	}
	if r := mpcc[fRecover]; !(r >= 0 && r <= 5) {
		t.Fatalf("single-path probe revival took %.1fs after restore, want ≤ 5", r)
	}
	if mpcc[fPost] < 0.8*mpcc[fPre] {
		t.Fatalf("MPCC post-restore goodput %.1f Mbps below pre-outage %.1f", mpcc[fPost], mpcc[fPre])
	}

	// The detector is protocol-independent: the coupled MPTCP baselines must
	// also survive the outage without stalling.
	for _, label := range []string{"lia", "olia"} {
		if r := faultRow(t, tab, label); math.IsNaN(r[fMigrate]) {
			t.Fatalf("%s never re-sustained 80%% of pre-outage goodput", label)
		}
	}

	// Without failure detection the finite receive buffer stalls the whole
	// connection on head-of-line blocking for the rest of the outage.
	nd := faultRow(t, tab, "mpcc-loss/no-detect")
	if !math.IsNaN(nd[fMigrate]) {
		t.Fatalf("no-detect variant sustained goodput %.1fs into the outage — expected a stall", nd[fMigrate])
	}
	if nd[fOutage] > 0.7*mpcc[fOutage] {
		t.Fatalf("no-detect outage goodput %.1f Mbps vs detected %.1f — stall contrast missing",
			nd[fOutage], mpcc[fOutage])
	}
}
