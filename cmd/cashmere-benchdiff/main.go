// Command cashmere-benchdiff compares two cashmere-bench -json results
// files cell by cell and exits nonzero when any metric of any compared
// cell differs — the CI performance gate.
//
//	cashmere-benchdiff [-cells '^(SOR|LU)/'] baseline.json current.json
//
// Virtual-time metrics (exec_ns, data_bytes, event counters) are
// functions of the program, the cost model and the simulator's fixed
// processor order, not of the host, so a committed results file is
// golden on every machine. -cells restricts the comparison to the cells
// whose app/variant/topology label matches.
package main

import (
	"flag"
	"fmt"
	"os"

	"cashmere/internal/bench"
)

func main() {
	cells := flag.String("cells", "", "regexp restricting compared cells by app/variant/topology label")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: cashmere-benchdiff [flags] baseline.json current.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	baseline, err := bench.LoadResults(flag.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	current, err := bench.LoadResults(flag.Arg(1))
	if err != nil {
		fail("%v", err)
	}

	rep, err := bench.DiffResults(baseline, current, bench.DiffOptions{CellPattern: *cells})
	if err != nil {
		fail("%v", err)
	}
	rep.WriteText(os.Stdout)
	if !rep.OK() {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cashmere-benchdiff: "+format+"\n", args...)
	os.Exit(2)
}
