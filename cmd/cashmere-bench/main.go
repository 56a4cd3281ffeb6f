// Command cashmere-bench regenerates the evaluation of the Cashmere-2L
// paper: Tables 1-3, Figures 6-7, and the Section 3.3.4/3.3.5 ablations.
//
// Usage:
//
//	cashmere-bench -all            # everything (minutes at default sizes)
//	cashmere-bench -table 3       # one table (1, 2, 3, or "costs")
//	cashmere-bench -figure 7      # one figure (6 or 7)
//	cashmere-bench -ablation shootdown|lockfree|adaptive
//	cashmere-bench -quick -adaptive   # adaptive-policy ablation at 16:4
//	cashmere-bench -scaling 128:4  # scale-out sweep, 1-32 nodes at 4 procs/node
//	cashmere-bench -quick -all    # tiny problem sizes (seconds)
//	cashmere-bench -all -j 8      # eight experiment cells in parallel
//	cashmere-bench -all -json out.json -timeout 2m
//	cashmere-bench -table 3 -trace sor.json   # Perfetto trace of one cell
//	cashmere-bench -all -http :6060          # live /metrics, /status, pprof
//	cashmere-bench -table 3 -profile sor.txt  # hot-page report of one cell
//
// -trace records a structured event trace of one experiment cell
// (chosen with -trace-cell, default SOR/2L/32:4) and writes it as
// Chrome trace-event JSON, loadable at https://ui.perfetto.dev; with
// -json, the traced cell's results also carry a "trace" summary of
// event counts and latency histograms. See docs/TRACING.md. A
// -trace-cell that none of the selected sections reads is rejected
// before any cell runs.
//
// The selected sections are planned first: their distinct experiment
// cells (application x protocol variant x topology) execute once each
// through a bounded worker pool, -j sets its width (default
// GOMAXPROCS), and every section then renders from the one results
// table. A panicking or timed-out cell is marked FAIL in the rendered
// output while the rest of the evaluation proceeds; any failure makes
// the command exit nonzero after rendering. -json writes the results
// table (including failures) as a machine-readable file whose schema
// is documented in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"cashmere/internal/bench"
	"cashmere/internal/cli"
	"cashmere/internal/metrics"
)

func main() {
	var o cli.BenchOptions
	o.Register(flag.CommandLine)
	flag.Parse()
	// Resolve the host-dependent sentinels internal/cli keeps stable for
	// the generated flag documentation.
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	progressSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "progress" {
			progressSet = true
		}
	})
	if !progressSet {
		o.Progress = stderrIsTerminal()
	}

	stopProfiles := startProfiles(o.CPUProfile, o.MemProfile)
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}
	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "cashmere-bench:", err)
		exit(2)
	}

	secs, err := bench.Sections(o)
	if err != nil {
		usage(err)
	}
	if len(secs) == 0 {
		flag.Usage()
		exit(2)
	}
	plan := bench.Plan(secs...)

	s := bench.NewSuite(o.Quick)
	s.SetWorkers(o.Workers)
	s.SetTimeout(o.Timeout)
	if o.Progress {
		s.SetProgress(os.Stderr)
	}
	outs, err := metrics.NewTraceOutputs(o.Trace, "", o.Profile, o.TracePages, "hot-page/hot-lock profile of "+o.TraceCell)
	if err != nil {
		usage(err)
	}
	if outs.Wanted() {
		// Validate the cell label and normalize its topology through the
		// shared grammar, so "-trace-cell SOR/2L/32:4" and every other
		// topology-bearing flag reject bad input with the same message,
		// and refuse a cell the plan does not run before any cell runs.
		label, err := bench.ParseCell(o.TraceCell, plan)
		if err != nil {
			usage(fmt.Errorf("-trace-cell: %w", err))
		}
		s.SetTrace(label, outs.Pages)
	}
	if o.HTTP != "" {
		reg := metrics.NewRegistry()
		s.SetMetrics(reg)
		srv, err := reg.Start(o.HTTP)
		if err != nil {
			usage(fmt.Errorf("-http: %w", err))
		}
		fmt.Fprintf(os.Stderr, "cashmere-bench: serving metrics on http://%s/\n", srv.Addr)
		defer srv.Close()
	}

	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "cashmere-bench:", err)
			exit(1)
		}
	}
	rf := s.Run(plan)
	for _, sec := range secs {
		fail(sec.Render(os.Stdout, rf))
		fmt.Println()
	}

	if o.JSON != "" {
		f, err := os.Create(o.JSON)
		fail(err)
		_, err = rf.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fail(err)
	}

	if outs.Wanted() {
		tr := s.TraceResult()
		if tr == nil {
			fmt.Fprintf(os.Stderr, "cashmere-bench: -trace/-profile: cell %s failed, so it left no trace\n", o.TraceCell)
			exit(1)
		}
		fail(outs.Write(tr.Recording()))
	}

	if fails := rf.Failed(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "cashmere-bench: %d cell(s) failed:\n", len(fails))
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, " ", f)
		}
		exit(1)
	}
	stopProfiles()
}

// startProfiles starts a CPU profile and arranges for a heap profile,
// as requested; the returned stop function is idempotent and must run
// before every exit path so the profile files are complete.
func startProfiles(cpu, mem string) func() {
	var f *os.File
	if cpu != "" {
		var err error
		f, err = os.Create(cpu)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cashmere-bench: cpuprofile:", err)
			os.Exit(1)
		}
	}
	return func() {
		if f != nil {
			pprof.StopCPUProfile()
			f.Close()
			f = nil
		}
		if mem != "" {
			g, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cashmere-bench: memprofile:", err)
				mem = ""
				return
			}
			runtime.GC() // flush recently freed objects out of the profile
			if err := pprof.WriteHeapProfile(g); err != nil {
				fmt.Fprintln(os.Stderr, "cashmere-bench: memprofile:", err)
			}
			g.Close()
			mem = ""
		}
	}
}

// stderrIsTerminal reports whether stderr is a character device, the
// default for enabling the live progress line.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
