// Command cashmere-run executes one benchmark application on a chosen
// protocol and cluster configuration, verifies the result against the
// sequential reference, and prints the run's statistics and speedup.
//
// Usage:
//
//	cashmere-run -app Gauss -protocol 2L -nodes 8 -ppn 4
//	cashmere-run -app SOR -nodes 32 -ppn 4 -fabric switched  # beyond the paper's 8x4
//	cashmere-run -app Barnes -protocol 1LD -homeopt -quick
//	cashmere-run -app Em3d -adaptive       # per-page adaptive policy
//	cashmere-run -app SOR -quick -trace sor.json        # Perfetto trace
//	cashmere-run -app SOR -quick -trace-timeline - -trace-pages 0,3
//	cashmere-run -app SOR -profile -                    # hot-page report
//	cashmere-run -app Water -http :6060                 # live /metrics
//	cashmere-run -app SOR -transport tcp -nodes 2 -ppn 2   # one OS process per node
//	cashmere-run -app Gauss -quick -transport tcp -nodes 2 -ppn 2 -profile -
//
// -transport selects the engine: "sim" (the default) is the simulator,
// "tcp" the multi-process runtime (internal/mprun). A flag only the
// other engine reads — -protocol with tcp, say — is an error, not
// ignored. See docs/TRANSPORT.md.
//
// The tracing flags render one trace.Recording, whichever engine made
// it — in virtual time from the simulator, in rank 0's wall clock from
// tcp. -trace writes it as Chrome trace-event JSON, loadable at
// https://ui.perfetto.dev; -trace-timeline as a plain-text per-page
// event timeline ("-" for stdout), optionally restricted to the
// -trace-pages page numbers — the lines the CASHMERE_TRACE_PAGE
// environment variable streams to stderr, which a traced run ignores
// with a warning; -profile as the hot-page /
// hot-lock attribution report ("-" for stdout): the top pages by
// protocol time with sharing-pattern labels, contended locks and flags,
// and barrier latency. See docs/TRACING.md and docs/METRICS.md.
//
// -http serves live /metrics (Prometheus text format), /status, and
// net/http/pprof while the run executes. See docs/METRICS.md.
//
// -replay re-executes a model-checker counterexample (the JSON file the
// checker or fuzzer writes on an invariant violation; see
// docs/MODELCHECK.md) deterministically against a fresh cluster and
// prints the step-by-step account with the recorded protocol events. It
// exits 0 when the recorded violation reproduces and 1 when the replay
// diverges (runs clean); all other flags are ignored:
//
//	cashmere-run -replay counterexample.json
package main

import (
	"flag"
	"fmt"
	"os"

	"cashmere/internal/apps"
	"cashmere/internal/cli"
	"cashmere/internal/core"
	"cashmere/internal/costs"
	"cashmere/internal/metrics"
	"cashmere/internal/modelcheck"
	"cashmere/internal/policy"
	"cashmere/internal/trace"
)

func protocolByName(name string) (core.Kind, bool) {
	switch name {
	case "2L":
		return core.TwoLevel, true
	case "2LS":
		return core.TwoLevelSD, true
	case "1LD":
		return core.OneLevelDiff, true
	case "1L":
		return core.OneLevelWrite, true
	}
	return 0, false
}

func main() {
	var o cli.RunOptions
	o.Register(flag.CommandLine)
	flag.Parse()

	if o.Replay != "" {
		os.Exit(replay(o.Replay))
	}
	if err := o.CheckEngine(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "cashmere-run:", err)
		os.Exit(2)
	}

	kind, ok := protocolByName(o.Protocol)
	if !ok {
		fmt.Fprintf(os.Stderr, "cashmere-run: unknown protocol %q\n", o.Protocol)
		os.Exit(2)
	}
	model := costs.Default()
	fab, err := costs.ParseFabric(o.Fabric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cashmere-run: -fabric:", err)
		os.Exit(2)
	}
	model.MCFabric = fab
	set := apps.All()
	if o.Quick {
		set = apps.Small()
	}
	var app apps.App
	for _, a := range set {
		if a.Name() == o.App {
			app = a
		}
	}
	if app == nil {
		fmt.Fprintf(os.Stderr, "cashmere-run: unknown application %q\n", o.App)
		os.Exit(2)
	}
	outs, err := metrics.NewTraceOutputs(o.Trace, o.TraceTL, o.Profile, o.TracePages, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cashmere-run:", err)
		os.Exit(2)
	}
	if rank, mpNodes, isChild, err := cli.MPChildFromEnv(); isChild {
		if err != nil {
			fmt.Fprintln(os.Stderr, "cashmere-run:", err)
			os.Exit(2)
		}
		os.Exit(runMPChild(o, app, rank, mpNodes, outs.Wanted()))
	}
	if o.Transport == cli.EngineTCP {
		// One OS process per node over loopback sockets; the
		// single-process engine below never runs. See docs/TRANSPORT.md.
		os.Exit(runMPParent(o, outs))
	}

	cfg := core.Config{
		Nodes:         o.Nodes,
		ProcsPerNode:  o.PPN,
		Model:         &model,
		Protocol:      kind,
		HomeOpt:       o.HomeOpt,
		LockBasedMeta: o.LockBased,
		UseInterrupts: o.Interrupts,
	}
	var tr *trace.Tracer
	if outs.Wanted() {
		tr = trace.New(trace.Config{Procs: o.Nodes * o.PPN, Links: o.Nodes, Pages: outs.Pages})
		cfg.Trace = tr
	}
	var detach func()
	if o.HTTP != "" {
		reg := metrics.NewRegistry()
		cfg.Observer = func(c *core.Cluster) { detach = reg.Attach(c) }
		srv, err := reg.Start(o.HTTP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cashmere-run: -http:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "cashmere-run: serving metrics on http://%s/\n", srv.Addr)
		defer srv.Close()
	}
	if o.Adaptive {
		// Wire chains any Observer installed above (e.g. -http metrics).
		policy.Wire(&cfg, policy.Defaults())
	}
	res, err := apps.Run(app, cfg)
	if detach != nil {
		detach()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cashmere-run:", err)
		os.Exit(1)
	}
	if tr != nil {
		if err := outs.Write(tr.Recording()); err != nil {
			fmt.Fprintln(os.Stderr, "cashmere-run:", err)
			os.Exit(1)
		}
	}
	seq := app.SeqTime(costs.Default())
	protoLabel := kind.String()
	if o.Adaptive {
		protoLabel += "+A"
	}
	fmt.Printf("%s on %d:%d under %s — %s\n", app.Name(), o.Nodes*o.PPN, o.PPN, protoLabel, app.DataSet())
	fmt.Printf("verified against sequential reference: OK\n")
	fmt.Printf("sequential %.3fs, parallel %.3fs, speedup %.2f\n",
		float64(seq)/1e9, res.ExecSeconds(), float64(seq)/float64(res.ExecNS))
	fmt.Print(res.Total.String())
}

// replay re-executes a model-checker counterexample file and returns
// the process exit code: 0 when the recorded violation reproduces, 1
// when the schedule runs clean (a divergence — the protocol no longer
// exhibits the bug, or the file is stale), 2 on a bad file.
func replay(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cashmere-run: -replay:", err)
		return 2
	}
	cx, err := modelcheck.Decode(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cashmere-run: -replay:", err)
		return 2
	}
	v, err := modelcheck.Replay(cx, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cashmere-run: -replay:", err)
		return 2
	}
	if v == nil {
		return 1
	}
	return 0
}
