package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
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

// timingLine is the per-experiment footer: wall time, and with it the
// simulation rate, is the one part of stdout that is not reproducible.
var timingLine = regexp.MustCompile(`(?m)^\[.*\]\n`)

// TestGolden pins stdout byte for byte: the catalogue, and one experiment
// (a declared sweep and a hand-enumerated table, with notes) through flag
// parsing, the runner and table rendering, for one worker and for two. The
// same run's -csvdir files are checked for presence and header.
func TestGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr.String())
	}
	checkGolden(t, "list.golden", stdout.Bytes())

	for _, workers := range []string{"1", "2"} {
		dir := t.TempDir()
		stdout.Reset()
		args := []string{"-exp", "leo", "-dur", "6s", "-warmup", "2s", "-workers", workers, "-csvdir", dir}
		if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, stderr.String())
		}
		if n := len(timingLine.FindAll(stdout.Bytes(), -1)); n != 1 {
			t.Fatalf("%d timing lines in stdout, want 1:\n%s", n, stdout.String())
		}
		checkGolden(t, "leo.golden", timingLine.ReplaceAll(stdout.Bytes(), nil))
		for _, name := range []string{"leo_0.csv", "leo_1.csv"} {
			csv, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil || !bytes.Contains(csv, []byte(",")) {
				t.Errorf("-csvdir %s: %v, %q", name, err, csv)
			}
		}
	}
}

// TestBadInput: input that cannot produce a meaningful table is refused
// with one line on stderr and nothing on stdout — exit 2 for a flag value
// or experiment id, exit 1 for a file that cannot be written.
func TestBadInput(t *testing.T) {
	cases := []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-exp", "no-such-figure"}, 2, `unknown experiment "no-such-figure"`},
		{[]string{"-exp", "fig5a", "-reps", "0"}, 2, "-reps 0"},
		{[]string{"-exp", "fig5a", "-dur", "0s"}, 2, "-dur 0s"},
		{[]string{"-exp", "fig5a", "-dur", "-1s", "-warmup", "-2s"}, 2, "-dur -1s"},
		{[]string{"-exp", "fig5a", "-dur", "8s"}, 2, "-warmup 8s"}, // the default warm-up is 8 s
		{[]string{"-exp", "fig5a", "-dur", "4s", "-warmup", "5s"}, 2, "-warmup 5s"},
		{[]string{"-exp", "fig5a", "-workers", "0"}, 2, "-workers 0"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if !strings.HasPrefix(stderr.String(), tc.stderr) || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q (want prefix %q), stdout %q", tc.args, stderr.String(), tc.stderr, stdout.String())
		}
		if strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: stderr is not one line: %q", tc.args, stderr.String())
		}
	}

	// A -csvdir that cannot be created fails before any simulation.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "sched", "-dur", "2s", "-warmup", "1s", "-csvdir", filepath.Join(file, "dir")}
	if code := run(args, &stdout, &stderr); code != 1 || !strings.HasPrefix(stderr.String(), "csv: ") || stdout.Len() != 0 {
		t.Errorf("unwritable -csvdir: exit %d, stderr %q, stdout %q; want 1, a csv error and no table", code, stderr.String(), stdout.String())
	}
}

// TestCSVDirCreated: a -csvdir that does not exist yet is created, parents
// included, and receives the tables.
func TestCSVDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new", "csv")
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "sched", "-dur", "2s", "-warmup", "1s", "-csvdir", dir}
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("%v: exit %d, stderr %q", args, code, stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "sched_0.csv")); err != nil {
		t.Error(err)
	}
}

// TestHelp: -h prints the flags and exits 0, like every command here.
func TestHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || !strings.Contains(stderr.String(), "-csvdir") {
		t.Errorf("-h: exit %d, stderr %q; want 0 and the flag list", code, stderr.String())
	}
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("-bogus: exit %d, want 2", code)
	}
}
