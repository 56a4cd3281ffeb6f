// Package cli defines the command-line flag sets of the cashmere
// binaries in one importable place. The binaries register their flags
// through these option structs, and cmd/cashmere-flagsgen reflects
// over the same registrations to generate docs/FLAGS.md — so the
// documentation cannot drift from the code (CI regenerates it and
// fails on a diff).
//
// Defaults must be host-independent: a flag whose effective default
// depends on the environment (worker-pool width, terminal detection)
// registers a stable sentinel here and resolves it in the binary, so
// the generated documentation is identical on every machine.
package cli

import (
	"flag"
	"fmt"
	"time"
)

//go:generate go run cashmere/cmd/cashmere-flagsgen -o ../../docs/FLAGS.md

// RunOptions is the flag set of cashmere-run.
type RunOptions struct {
	App        string
	Protocol   string
	Transport  string
	Nodes      int
	PPN        int
	Topology   string
	Fabric     string
	HomeOpt    bool
	LockBased  bool
	Interrupts bool
	Adaptive   bool
	Quick      bool
	Trace      string
	TraceTL    string
	TracePages string
	Profile    string
	HTTP       string
	Replay     string
	// MPStatsInterval is how often each -transport tcp child streams an
	// observability report to the launcher.
	MPStatsInterval time.Duration
}

// Register installs cashmere-run's flags on fs.
func (o *RunOptions) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.App, "app", "SOR", "application: SOR, LU, Water, TSP, Gauss, Ilink, Em3d, Barnes")
	fs.StringVar(&o.Protocol, "protocol", "2L", "protocol: 2L, 2LS, 1LD, 1L")
	fs.StringVar(&o.Transport, "transport", EngineSim, `engine: "sim" (the virtual-time Memory Channel simulator, one process) or "tcp" (the multi-process runtime, one OS process per node over loopback sockets; see docs/TRANSPORT.md)`)
	fs.IntVar(&o.Nodes, "nodes", 8, "SMP nodes")
	fs.IntVar(&o.PPN, "ppn", 4, "processors per node")
	fs.StringVar(&o.Topology, "topology", "", `cluster topology as "procs:procsPerNode", e.g. 128:4 (overrides -nodes/-ppn)`)
	fs.StringVar(&o.Fabric, "fabric", "serial", `interconnect fabric: "serial" (the paper's hub) or "switched" (crossbar)`)
	fs.BoolVar(&o.HomeOpt, "homeopt", false, "home-node optimization (one-level protocols)")
	fs.BoolVar(&o.LockBased, "lockbased", false, "lock-based protocol metadata (Section 3.3.5 ablation)")
	fs.BoolVar(&o.Interrupts, "interrupts", false, "interrupt-based messaging instead of polling")
	fs.BoolVar(&o.Adaptive, "adaptive", false, "adaptive per-page coherence policy (see docs/ADAPTIVE.md)")
	fs.BoolVar(&o.Quick, "quick", false, "tiny problem size")
	fs.StringVar(&o.Trace, "trace", "", `write a Chrome/Perfetto trace of the run to this file ("-" for stdout)`)
	fs.StringVar(&o.TraceTL, "trace-timeline", "", `write a per-page event timeline to this file ("-" for stdout)`)
	fs.StringVar(&o.TracePages, "trace-pages", "", "comma-separated page numbers to restrict -trace-timeline (and, with -transport sim, CASHMERE_TRACE_PAGE-style live notes) to")
	fs.StringVar(&o.Profile, "profile", "", `write a hot-page/hot-lock attribution report to this file ("-" for stdout)`)
	fs.StringVar(&o.HTTP, "http", "", `serve live /metrics, /status, and pprof on this address (e.g. ":6060")`)
	fs.StringVar(&o.Replay, "replay", "", "replay a model-checker counterexample JSON file and exit")
	fs.DurationVar(&o.MPStatsInterval, "mp-stats-interval", 500*time.Millisecond, "frame-counter reporting interval of -transport tcp child processes (0 disables periodic reports)")
}

// The two values of cashmere-run's -transport: the engine that runs the
// application.
const (
	EngineSim = "sim"
	EngineTCP = "tcp"
)

// runEngineFlags names the engine of every cashmere-run flag that only
// one engine reads: the multi-process runtime has one protocol and no
// cost model, and the simulator has no child processes to report. The
// tracing flags are not here: a traced run is one trace.Recording
// whichever engine made it.
var runEngineFlags = map[string]string{
	"protocol":          EngineSim,
	"fabric":            EngineSim,
	"homeopt":           EngineSim,
	"lockbased":         EngineSim,
	"interrupts":        EngineSim,
	"adaptive":          EngineSim,
	"mp-stats-interval": EngineTCP,
}

// CheckEngine validates -transport and rejects a flag set explicitly on
// fs that the selected engine would ignore, naming it. Defaults never
// trip it, and the tcp launcher's children, re-executed with the
// parent's arguments, pass whenever the parent did.
func (o *RunOptions) CheckEngine(fs *flag.FlagSet) error {
	if o.Transport != EngineSim && o.Transport != EngineTCP {
		return fmt.Errorf("-transport %q: want %q or %q", o.Transport, EngineSim, EngineTCP)
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if engine, ok := runEngineFlags[f.Name]; ok && engine != o.Transport && err == nil {
			err = fmt.Errorf("-%s is read only by -transport %s; it would be ignored with -transport %s", f.Name, engine, o.Transport)
		}
	})
	return err
}

// BenchOptions is the flag set of cashmere-bench. Workers 0 means "use
// GOMAXPROCS", and Progress defaults to on only when stderr is a
// terminal; both sentinels are resolved by the binary so the
// registered defaults stay host-independent.
type BenchOptions struct {
	Quick      bool
	All        bool
	Table      string
	Figure     string
	Ablation   string
	Adaptive   bool
	Scaling    string
	Workers    int
	JSON       string
	Timeout    time.Duration
	Progress   bool
	CPUProfile string
	MemProfile string
	Trace      string
	TraceCell  string
	TracePages string
	HTTP       string
	Profile    string
}

// Register installs cashmere-bench's flags on fs.
func (o *BenchOptions) Register(fs *flag.FlagSet) {
	fs.BoolVar(&o.Quick, "quick", false, "use tiny problem sizes")
	fs.BoolVar(&o.All, "all", false, "run every table, figure, and ablation")
	fs.StringVar(&o.Table, "table", "", `table to regenerate: "1", "2", "3", or "costs"`)
	fs.StringVar(&o.Figure, "figure", "", `figure to regenerate: "6" or "7"`)
	fs.StringVar(&o.Ablation, "ablation", "", `ablation to run: "shootdown", "lockfree", or "adaptive"`)
	fs.BoolVar(&o.Adaptive, "adaptive", false, "run the adaptive-policy ablation (2L+A vs the fixed protocols; 16:4 with -quick, 32:4 otherwise)")
	fs.StringVar(&o.Scaling, "scaling", "", `scale-out sweep up to this topology ("procs:procsPerNode", e.g. 128:4 sweeps 1-32 nodes)`)
	fs.IntVar(&o.Workers, "j", 0, "experiment cells to execute in parallel (0 = GOMAXPROCS)")
	fs.StringVar(&o.JSON, "json", "", "write machine-readable per-cell results to this file")
	fs.DurationVar(&o.Timeout, "timeout", 0, "per-cell wall-clock timeout (0 = none)")
	fs.BoolVar(&o.Progress, "progress", false, "live progress line on stderr (default: on when stderr is a terminal)")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.Trace, "trace", "", "write a Chrome/Perfetto trace of the -trace-cell run to this file")
	fs.StringVar(&o.TraceCell, "trace-cell", "SOR/2L/32:4", "cell to trace, as app/variant/topology")
	fs.StringVar(&o.TracePages, "trace-pages", "", "comma-separated page numbers for per-page trace notes")
	fs.StringVar(&o.HTTP, "http", "", `serve live /metrics, /status, and pprof on this address (e.g. ":6060")`)
	fs.StringVar(&o.Profile, "profile", "", `write the -trace-cell run's hot-page/hot-lock report to this file ("-" = stdout)`)
}
