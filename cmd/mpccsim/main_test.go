package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGolden pins stdout (and the -trace CSV) byte for byte. The goldens
// were captured from the hand-wired simulator this command used to carry,
// so they also pin that exp.Run builds the identical world.
func TestGolden(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		trace bool
	}{
		{"default", []string{"-dur", "5s", "-warmup", "2s"}, false},
		{"share_lia_loss", []string{"-share", "-proto", "lia", "-loss", "0.001"}, false},
		{"three_links", []string{"-links", "50,100,20", "-proto", "mpcc-loss", "-dur", "5s", "-warmup", "2s"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			tracePath := filepath.Join(t.TempDir(), "trace.csv")
			if tc.trace {
				args = append(args, "-trace", tracePath)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr.String())
			}
			checkGolden(t, tc.name+".golden", stdout.Bytes())
			if tc.trace {
				csv, err := os.ReadFile(tracePath)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, tc.name+"_trace.csv.golden", csv)
			}
		})
	}
}

// TestBadLinks: flag values the simulation cannot run — unusable -links,
// unknown protocols, a negative delay, buffer or warm-up, a loss outside
// [0, 1], no duration, a warm-up that leaves nothing to measure — are
// rejected before simulating with one stderr line and exit status 2,
// instead of a netem panic, a run that never ends, or a 0.0 Mbps table.
func TestBadLinks(t *testing.T) {
	cases := []struct {
		args   []string
		prefix string
	}{
		{[]string{"-links", "0"}, "bad -links: "},
		{[]string{"-links", "-5"}, "bad -links: "},
		{[]string{"-links", "100,0"}, "bad -links: "},
		{[]string{"-links", "abc"}, "bad -links: "},
		{[]string{"-links", "nan"}, "bad -links: "},
		{[]string{"-links", ""}, "bad -links: "},
		{[]string{"-dur", "0"}, "-dur "},
		{[]string{"-dur", "-1s"}, "-dur "},
		{[]string{"-loss", "2"}, "-loss "},
		{[]string{"-loss", "-0.1"}, "-loss "},
		{[]string{"-loss", "NaN"}, "-loss "},
		{[]string{"-delay", "-1ms"}, "-delay "},
		{[]string{"-proto", "bogus"}, "-proto "},
		{[]string{"-share", "-sp", "bogus"}, "-sp "},
		{[]string{"-buffer", "-5"}, "-buffer "},
		{[]string{"-buffer", "0"}, "-buffer "},
		{[]string{"-warmup", "5s", "-dur", "2s"}, "-warmup "},
		{[]string{"-warmup", "-1s", "-dur", "2s"}, "-warmup "},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		done := make(chan int, 1)
		go func() { done <- run(tc.args, &stdout, &stderr) }()
		select {
		case code := <-done:
			if code != 2 {
				t.Errorf("%q: exit %d, want 2", tc.args, code)
			}
			if !strings.HasPrefix(stderr.String(), tc.prefix) || strings.Count(stderr.String(), "\n") != 1 || stdout.Len() != 0 {
				t.Errorf("%q: stderr %q, stdout %q; want one line starting %q", tc.args, stderr.String(), stdout.String(), tc.prefix)
			}
		case <-time.After(time.Second):
			t.Errorf("%q: still running after a second", tc.args)
		}
	}
}
