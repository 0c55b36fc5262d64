package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestBadLinks: unusable -links values are rejected at flag parsing with
// exit status 2 instead of reaching netem's constructor panics.
func TestBadLinks(t *testing.T) {
	for _, links := range []string{"0", "-5", "100,0", "abc", "nan", ""} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-links", links}, &stdout, &stderr); code != 2 {
			t.Errorf("-links %q: exit %d, want 2", links, code)
		}
		if !strings.HasPrefix(stderr.String(), "bad -links: ") || stdout.Len() != 0 {
			t.Errorf("-links %q: stderr %q, stdout %q", links, stderr.String(), stdout.String())
		}
	}
}
