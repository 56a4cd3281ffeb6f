// Command benchmark is the repository's benchmark: four workloads
// across the simulator and the multi-process runtime, measured end to
// end (wall, CPU, bytes moved, allocation, peak RSS, set-up) and, in a
// separate traced run, layer by layer at the public seams. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its surroundings passed in; it returns the exit
// code: 0, 1 when a repetition failed or a comparison came out worse,
// 2 when the benchmark could not run as asked.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadFlag = fs.String("workload", "", "run only this workload and end with the one-line JSON result (default: all four)")
		seed         = fs.Int64("seed", 0, "input seed; 0 gives the paper's data sets and orders")
		seconds      = fs.Float64("seconds", runSeconds, "seconds each workload measures, over all its rounds")
		trace        = fs.Int("trace", 0, "1 runs the traced mode (same as -traced)")
		traced       = fs.Bool("traced", false, "one round alternating untraced and seam-traced repetitions, then the isolation probes: the per-layer metrics")
		rounds       = fs.Int("rounds", 3, "rounds of (workload 1..n); each round starts a fresh child per workload")
		reps         = fs.Int("reps", 0, "cap on timed repetitions per round (0: as many as the seconds allow)")
		deadline     = fs.Duration("deadline", 60*time.Second, "a repetition running longer than this has failed")
		out          = fs.String("out", "", "write the result set as JSON to this file")
		compareFlag  = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
		specFlag     = fs.Bool("spec", false, "print BENCHMARK.json and exit")
		child        = fs.String("child", "", "internal: run one workload in this process (JSON options)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	switch {
	case *child != "":
		var co childOptions
		if err := json.Unmarshal([]byte(*child), &co); err != nil {
			return fail(fmt.Errorf("-child options: %w", err))
		}
		w := workloadByName(co.Workload)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", co.Workload))
		}
		if err := runChild(co, w, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *specFlag:
		stdout.Write(spec())
		return 0
	case *compareFlag:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("usage: -compare A.json B.json"))
		}
		a, err := readResults(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResults(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !compare(a, b, stdout) {
			return 1
		}
		return 0
	}

	o := setOptions{
		rounds: *rounds, seconds: *seconds, reps: *reps, traced: *traced || *trace == 1,
		seed: *seed, deadline: *deadline, log: stderr,
	}
	if o.traced {
		o.rounds = 1 // the alternation inside one child is the interleaving
	}
	if *workloadFlag != "" {
		if workloadByName(*workloadFlag) == nil {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			return fail(fmt.Errorf("unknown workload %q (have %s)", *workloadFlag, strings.Join(names, ", ")))
		}
		o.names = []string{*workloadFlag}
	} else {
		for _, w := range workloads {
			o.names = append(o.names, w.name)
		}
	}
	rs, err := runSet(o)
	if err != nil {
		return fail(err)
	}
	rs.print(stdout)
	if *out != "" {
		b, err := json.MarshalIndent(rs, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if *workloadFlag != "" {
		line, err := driverLine(rs.Workloads[0], o.traced)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	for _, name := range rs.missing() {
		fmt.Fprintln(stderr, "benchmark: no measurement for", name)
	}
	if rs.failed() || len(rs.missing()) > 0 {
		return 1
	}
	return 0
}
