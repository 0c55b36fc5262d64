package netem

import (
	"strings"
	"testing"

	"mpcc/internal/sim"
)

func TestParseBWTrace(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantErr string // substring, "" = success
		points  int
	}{
		{
			name: "plain rows", points: 3,
			in: "0,12.5\n1.0,9.3\n2.5,24\n",
		},
		{
			name: "header comments blanks", points: 2,
			in: "# cellular walk trace\ntime_s,rate_mbps\n\n0.0,12.5\n\n# midpoint\n1.0,9.3\n",
		},
		{name: "empty input", in: "", wantErr: "empty trace"},
		{name: "comments only", in: "# nothing here\n\n", wantErr: "empty trace"},
		{name: "second header rejected", in: "time_s,rate_mbps\nalso,bad\n0,1\n", wantErr: "malformed"},
		{name: "malformed rate", in: "0,fast\n", wantErr: "malformed"},
		{name: "missing field", in: "0\n", wantErr: "2 comma-separated fields"},
		{name: "extra field", in: "0,1,2\n", wantErr: "2 comma-separated fields"},
		{name: "non-monotonic", in: "0,1\n2,2\n1,3\n", wantErr: "non-monotonic"},
		{name: "duplicate timestamp", in: "0,1\n0,2\n", wantErr: "non-monotonic"},
		{name: "negative time", in: "-1,5\n", wantErr: "out of range"},
		{name: "negative rate", in: "0,-5\n", wantErr: "out of range"},
		{name: "nan rate", in: "0,NaN\n", wantErr: "out of range"},
		{name: "inf time", in: "Inf,5\n", wantErr: "out of range"},
		{name: "huge time", in: "1e30,5\n", wantErr: "out of range"},
		{name: "huge rate", in: "0,1e30\n", wantErr: "out of range"},
		{name: "zero rate allowed", in: "0,5\n1,0\n2,5\n", points: 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := ParseBWTraceString(c.in)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if len(tr.Points) != c.points {
				t.Fatalf("parsed %d points, want %d", len(tr.Points), c.points)
			}
		})
	}
}

func TestBWTraceDurationAndMaxRate(t *testing.T) {
	tr, err := ParseBWTraceString("0,10\n1,20\n3,5\n")
	if err != nil {
		t.Fatal(err)
	}
	// Last sample at 3 s plus the final 2 s spacing.
	if d := tr.Duration(); d != 5*sim.Second {
		t.Fatalf("Duration = %v, want 5s", d)
	}
	if m := tr.MaxRate(); m != 20e6 {
		t.Fatalf("MaxRate = %v, want 20e6", m)
	}
	single, err := ParseBWTraceString("2,10\n")
	if err != nil {
		t.Fatal(err)
	}
	if d := single.Duration(); d != 2*sim.Second {
		t.Fatalf("single-sample Duration = %v, want 2s", d)
	}
}

func TestBWTraceApplyDrivesLinkRate(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "cell", 100*mbps, 10*sim.Millisecond, 1<<20)
	tr, err := ParseBWTraceString("0,10\n1,20\n2,5\n")
	if err != nil {
		t.Fatal(err)
	}
	l.ScheduleRates(tr.Points, tr.Duration()) // loop every 3 s
	check := func(at sim.Time, want float64) {
		e.At(at, func() {
			if l.Rate() != want {
				t.Errorf("rate at %v = %v, want %v", at, l.Rate(), want)
			}
		})
	}
	check(500*sim.Millisecond, 10e6)
	check(1500*sim.Millisecond, 20e6)
	check(2500*sim.Millisecond, 5e6)
	// Second loop iteration replays the trace from its start.
	check(3500*sim.Millisecond, 10e6)
	check(4500*sim.Millisecond, 20e6)
	e.Run(5 * sim.Second)
}

func FuzzParseBWTrace(f *testing.F) {
	f.Add("0,12.5\n1.0,9.3\n2.5,24\n")
	f.Add("# comment\ntime_s,rate_mbps\n0,1\n")
	f.Add("")
	f.Add("0,1\n0,2\n")  // non-monotonic (duplicate)
	f.Add("2,1\n1,2\n")  // non-monotonic (decreasing)
	f.Add("0\n")         // missing field
	f.Add("a,b,c\n")     // extra field
	f.Add("-1,5\n")      // negative time
	f.Add("0,NaN\n")     // NaN rate
	f.Add("1e30,1e30\n") // overflow candidates
	f.Add("0,\n")        // empty rate field
	f.Add(",5\n")        // empty time field
	f.Add("0x10,5\n")    // hex float accepted by ParseFloat? stays bounded
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ParseBWTraceString(in)
		if err != nil {
			return
		}
		// A successful parse must uphold the invariants every consumer
		// (Link.ScheduleRates, the simtest trace-envelope oracle) relies on.
		if len(tr.Points) == 0 {
			t.Fatal("nil error but no points")
		}
		prev := sim.Time(-1)
		for i, p := range tr.Points {
			if p.At <= prev {
				t.Fatalf("point %d: non-monotonic time %v after %v", i, p.At, prev)
			}
			if p.At < 0 || p.RateBps < 0 || p.RateBps > 1e15 {
				t.Fatalf("point %d out of range: %+v", i, p)
			}
			prev = p.At
		}
		if tr.Duration() < tr.Points[len(tr.Points)-1].At {
			t.Fatalf("Duration %v below final sample %v", tr.Duration(), tr.Points[len(tr.Points)-1].At)
		}
	})
}
