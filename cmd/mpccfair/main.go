// Command mpccfair computes the lexicographic max-min fair allocation on a
// parallel-link network — the theoretical equilibrium MPCC converges to
// (Theorems 4.1/5.1/5.2).
//
//	mpccfair 'caps=100,100,100; conn=0; conn=0,1,2'
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"mpcc/internal/fairness"
	"mpcc/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `usage: mpccfair 'caps=<c1,c2,...>; conn=<l,...>; conn=<l,...>'
example (the paper's Fig. 1): mpccfair 'caps=100,100,100; conn=0; conn=0,1,2'
`

// run is the command with its arguments and streams passed in; it returns
// the exit status: 0 on success and for -h, 2 for a usage or parse error,
// 1 when the solver fails.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	if len(args) == 1 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help") {
		fmt.Fprint(stdout, usage)
		return 0
	}
	net, err := fairness.Parse(strings.Join(args, " "))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	alloc, err := fairness.LMMF(net)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, "LMMF allocation:")
	for i, total := range alloc.Totals {
		fmt.Fprintf(stdout, "  conn %d (links %v): total %8.2f  per-link %v\n",
			i, net.Conns[i], total, fmtSlice(alloc.PerLink[i]))
	}
	fmt.Fprintf(stdout, "Jain fairness index: %.4f\n", stats.JainIndex(alloc.Totals))
	return 0
}

func fmtSlice(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
