package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden pins stdout for the paper's Fig. 1 network and for a spec split
// over several arguments, as an unquoted shell line passes it.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"fig1", []string{"caps=100,100,100; conn=0; conn=0,1,2"}},
		{"split_args", []string{"caps=10,40;", "conn=0;", "conn=0,1;", "conn=1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr.String())
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s differs:\n--- got ---\n%s--- want ---\n%s", path, stdout.Bytes(), want)
			}
		})
	}
}

// TestBadInput: no arguments and an unparsable spec are usage errors (exit
// 2) that print to stderr only; -h prints the usage to stdout and exits 0.
func TestBadInput(t *testing.T) {
	cases := []struct {
		args   []string
		code   int
		stdout bool // output on stdout, else on stderr only
	}{
		{nil, 2, false},
		{[]string{"caps=oops"}, 2, false},
		{[]string{"-bogus"}, 2, false},
		{[]string{"-h"}, 0, true},
		{[]string{"-help"}, 0, true},
		{[]string{"--help"}, 0, true},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		out, quiet := &stderr, &stdout
		if tc.stdout {
			out, quiet = &stdout, &stderr
		}
		if code != tc.code || out.Len() == 0 || quiet.Len() != 0 {
			t.Errorf("run(%q) = exit %d, stdout %q, stderr %q; want exit %d", tc.args, code, stdout.String(), stderr.String(), tc.code)
		}
	}
}
