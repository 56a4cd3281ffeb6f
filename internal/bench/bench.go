// Package bench regenerates the evaluation of the paper: Table 1 (basic
// operation costs), Table 2 (data set sizes and sequential times),
// Table 3 (detailed per-application protocol statistics at 32
// processors), Figure 6 (normalized execution-time breakdown), Figure 7
// (speedups across protocols and cluster configurations), and the
// Section 3.3.4/3.3.5 ablations (shootdown vs two-way diffing, lock-free
// vs lock-based metadata).
//
// Absolute numbers depend on the simulated platform; what the harness is
// expected to reproduce is the paper's shape: which protocol wins, by
// roughly what factor, and where the crossovers fall. EXPERIMENTS.md
// records paper-vs-measured for every experiment.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/costs"
	"cashmere/internal/metrics"
	"cashmere/internal/policy"
	"cashmere/internal/stats"
	"cashmere/internal/trace"
)

// Variant identifies a protocol configuration column.
type Variant struct {
	Kind       core.Kind
	HomeOpt    bool
	LockBased  bool
	Interrupts bool

	// Adaptive wires the internal/policy engine: the page-mode table
	// starts at the variant's base protocol and the engine re-decides
	// per-page policy at every barrier epoch (see docs/ADAPTIVE.md).
	Adaptive bool
}

// Label returns the paper's abbreviation for the variant.
func (v Variant) Label() string {
	s := v.Kind.String()
	if v.HomeOpt {
		s += "+H"
	}
	if v.LockBased {
		s += "+lk"
	}
	if v.Interrupts {
		s += "+intr"
	}
	if v.Adaptive {
		s += "+A"
	}
	return s
}

// FourProtocols are the paper's main comparison columns.
var FourProtocols = []Variant{
	{Kind: core.TwoLevel},
	{Kind: core.TwoLevelSD},
	{Kind: core.OneLevelDiff},
	{Kind: core.OneLevelWrite},
}

// Topology is a processor configuration in the paper's P:ppn notation
// (total processors : processes per node).
type Topology struct {
	Nodes, PPN int
}

// Label renders the paper's notation, e.g. "32:4".
func (t Topology) Label() string { return fmt.Sprintf("%d:%d", t.Nodes*t.PPN, t.PPN) }

// Figure7Topologies are the configurations of Figure 7.
var Figure7Topologies = []Topology{
	{4, 1}, {1, 4}, {8, 1}, {4, 2}, {2, 4}, {8, 2}, {4, 4}, {8, 3}, {8, 4},
}

// FullCluster is the paper's full platform: eight 4-processor nodes.
var FullCluster = Topology{Nodes: 8, PPN: 4}

// Suite runs and caches experiment executions through a bounded
// concurrent runner: cells execute in parallel (each is an independent
// simulated cluster), concurrent requests for the same cell are
// deduplicated (singleflight), a panicking cell reports an error
// instead of killing the evaluation, and cells can be bounded by a
// wall-clock timeout.
type Suite struct {
	// Quick selects the tiny test problem sizes instead of the default
	// (scaled-down) evaluation sizes.
	Quick bool

	// exec performs one experiment cell; tests may substitute it to
	// count or fail executions.
	exec func(name string, v Variant, topo Topology) (core.Result, error)

	r *runner

	// traceLabel selects the cell (app/variant/topology) whose run is
	// recorded by a structured event tracer; empty disables tracing.
	traceLabel string
	tracePages map[int]bool

	trMu    sync.Mutex
	traceTr *trace.Tracer

	// metrics, when set, receives every cell's cluster for live
	// scraping: clusters attach through core.Config.Observer as they
	// are built and detach (folding their final statistics into the
	// registry) when their run completes.
	metrics *metrics.Registry
}

type runKey struct {
	app  string
	v    Variant
	topo Topology
}

// NewSuite returns an empty suite with a worker pool of GOMAXPROCS
// cells.
func NewSuite(quick bool) *Suite {
	s := &Suite{Quick: quick}
	s.exec = s.execute
	s.r = newRunner(runtime.GOMAXPROCS(0), func(k runKey) (core.Result, error) {
		return s.exec(k.app, k.v, k.topo)
	})
	return s
}

// SetWorkers sets the number of experiment cells executing
// concurrently. It must be called before the first Run or prefetch.
func (s *Suite) SetWorkers(n int) { s.r.setWorkers(n) }

// Workers returns the worker-pool width.
func (s *Suite) Workers() int { return s.r.workers() }

// SetTimeout bounds each cell's host wall-clock execution time; a cell
// exceeding it is marked failed (its error appears in the rendered
// tables and the JSON results) while the rest of the evaluation
// proceeds. Zero disables the bound.
func (s *Suite) SetTimeout(d time.Duration) { s.r.timeout = d }

// SetProgress enables a live progress line (cells done/total, current
// slowest cell) written to w, typically stderr. Call Close to
// terminate the line.
func (s *Suite) SetProgress(w io.Writer) { s.r.prog = newProgress(w) }

// SetJSON attaches a sink recording every completed cell for the
// machine-readable results file.
func (s *Suite) SetJSON(sink *JSONSink) { s.r.sink = sink }

// SetTrace arranges for the cell with the given "app/variant/topology"
// label (e.g. "SOR/2L/32:4") to run under a structured event tracer
// (see internal/trace). pages optionally restricts per-page live notes
// to those page numbers; nil records all pages. Call before the first
// Run or prefetch; retrieve the recorder with TraceResult.
func (s *Suite) SetTrace(cell string, pages map[int]bool) {
	s.traceLabel = cell
	s.tracePages = pages
}

// TraceResult returns the tracer of the cell selected with SetTrace,
// or nil if that cell has not (successfully) executed.
func (s *Suite) TraceResult() *trace.Tracer {
	s.trMu.Lock()
	defer s.trMu.Unlock()
	return s.traceTr
}

// SetMetrics attaches the suite to a live metrics registry: every
// cell's cluster becomes scrapeable through /metrics while it runs,
// and the registry's /status snapshot is served from the suite's
// runner (per-cell queued/running/done/failed progress with an ETA).
// Call before the first Run or prefetch.
func (s *Suite) SetMetrics(reg *metrics.Registry) {
	s.metrics = reg
	reg.SetStatusFunc(s.Status)
}

// Status returns the evaluation's live progress snapshot.
func (s *Suite) Status() metrics.Status { return s.r.status() }

// Close terminates the progress line, if one is active.
func (s *Suite) Close() { s.r.prog.close() }

// FailedCells returns a sorted description of every failed cell
// (errored, panicked, or timed out) executed so far.
func (s *Suite) FailedCells() []string { return s.r.failed() }

// appInstance returns a fresh instance of the named application at the
// suite's problem size.
func (s *Suite) appInstance(name string) apps.App {
	set := apps.All()
	if s.Quick {
		set = apps.Small()
	}
	for _, a := range set {
		if a.Name() == name {
			return a
		}
	}
	return nil
}

// AppNames returns the suite's application names in Table 2 order.
func AppNames() []string {
	var names []string
	for _, a := range apps.Small() {
		names = append(names, a.Name())
	}
	return names
}

// Run executes (with caching) the named application under the variant
// and topology and returns its statistics. Concurrent calls for the
// same cell are deduplicated: one caller executes, the rest block on
// its in-flight entry and share the result (singleflight).
func (s *Suite) Run(name string, v Variant, topo Topology) (core.Result, error) {
	return s.r.run(runKey{name, v, topo})
}

// Prefetch schedules cells for every application under the given
// variants and topologies through the worker pool without waiting for
// them; later Run calls for the same cells join the in-flight
// executions. Renderers prefetch the cells they need, so tables and
// figures compute in parallel while rendering stays serial and
// deterministic given the cached results.
func (s *Suite) Prefetch(variants []Variant, topos []Topology) {
	var keys []runKey
	for _, name := range AppNames() {
		for _, v := range variants {
			for _, topo := range topos {
				keys = append(keys, runKey{name, v, topo})
			}
		}
	}
	s.r.prefetch(keys)
}

// PrefetchAll schedules every cell of the full evaluation (Tables 3,
// Figures 6-7, and both ablations); used by the -all driver so late
// sections compute while early ones render.
func (s *Suite) PrefetchAll() {
	s.Prefetch(allVariants(), []Topology{FullCluster})
	s.Prefetch(Figure7Variants, Figure7Topologies)
}

// allVariants returns every protocol variant used at the full cluster
// configuration: the four main columns plus the ablation variants.
func allVariants() []Variant {
	vs := append([]Variant(nil), FourProtocols...)
	vs = append(vs,
		Variant{Kind: core.TwoLevelSD, Interrupts: true},
		Variant{Kind: core.TwoLevel, LockBased: true},
	)
	return vs
}

// execute performs one experiment cell uncached.
func (s *Suite) execute(name string, v Variant, topo Topology) (core.Result, error) {
	app := s.appInstance(name)
	if app == nil {
		return core.Result{}, fmt.Errorf("bench: unknown application %q", name)
	}
	cfg := core.Config{
		Nodes:         topo.Nodes,
		ProcsPerNode:  topo.PPN,
		Protocol:      v.Kind,
		HomeOpt:       v.HomeOpt,
		LockBasedMeta: v.LockBased,
		UseInterrupts: v.Interrupts,
	}
	key := runKey{name, v, topo}
	var tr *trace.Tracer
	if s.traceLabel != "" && keyLabel(key) == s.traceLabel {
		tr = trace.New(trace.Config{
			Procs: topo.Nodes * topo.PPN,
			Links: topo.Nodes,
			Pages: s.tracePages,
		})
		cfg.Trace = tr
	}
	var detach func()
	if s.metrics != nil {
		cfg.Observer = func(c *core.Cluster) { detach = s.metrics.Attach(c) }
	}
	if v.Adaptive {
		// Wire chains the Observer above, so metrics still attach.
		policy.Wire(&cfg, policy.Defaults())
	}
	res, err := apps.Run(app, cfg)
	if detach != nil {
		detach()
	}
	if tr != nil && err == nil {
		s.trMu.Lock()
		s.traceTr = tr
		s.trMu.Unlock()
		if s.r.sink != nil {
			s.r.sink.noteTrace(key, tr.Summary())
			s.r.sink.noteProfile(key, metrics.BuildProfile(tr.Recording(), 20))
		}
	}
	return res, err
}

// Speedup returns the named application's speedup for a cached or fresh
// run under the variant and topology.
func (s *Suite) Speedup(name string, v Variant, topo Topology) (float64, error) {
	res, err := s.Run(name, v, topo)
	if err != nil {
		return 0, err
	}
	app := s.appInstance(name)
	seq := app.SeqTime(costs.Default())
	return float64(seq) / float64(res.ExecNS), nil
}

// bar renders an ASCII bar of the given value against a scale maximum.
func bar(v, max float64, width int) string {
	if max <= 0 {
		max = 1
	}
	n := int(v / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// sortedKeys is a test helper exposing the cached run set.
func (s *Suite) sortedKeys() []runKey {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	keys := make([]runKey, 0, len(s.r.results))
	for k := range s.r.results {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.app != b.app {
			return a.app < b.app
		}
		return a.v.Label() < b.v.Label()
	})
	return keys
}

// kcount formats a count the way Table 3 does (thousands with two
// decimals for large values).
func kcount(n int64) string {
	if n >= 1000 {
		return fmt.Sprintf("%.2fK", float64(n)/1000)
	}
	return fmt.Sprintf("%d", n)
}

// line writes a printf-formatted line.
func line(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}

// statRow extracts a Table 3 statistics row.
func statRow(res core.Result) []string {
	t := res.Total
	return []string{
		fmt.Sprintf("%.3f", t.ExecSeconds()),
		kcount(t.Counts[stats.LockAcquires]),
		fmt.Sprintf("%d", t.Counts[stats.Barriers]),
		kcount(t.Counts[stats.ReadFaults]),
		kcount(t.Counts[stats.WriteFaults]),
		kcount(t.Counts[stats.PageTransfers]),
		kcount(t.Counts[stats.DirectoryUpdates]),
		kcount(t.Counts[stats.WriteNotices]),
		kcount(t.Counts[stats.ExclTransitions]),
		fmt.Sprintf("%.2f", t.DataMB()),
		kcount(t.Counts[stats.TwinCreations]),
		kcount(t.Counts[stats.IncomingDiffs]),
		kcount(t.Counts[stats.FlushUpdates]),
		kcount(t.Counts[stats.Shootdowns]),
	}
}

// statLabels are the Table 3 row labels, matching statRow's order.
var statLabels = []string{
	"Exec. time (secs)",
	"Lock/Flag Acquires",
	"Barriers",
	"Read Faults",
	"Write Faults",
	"Page Transfers",
	"Directory Updates",
	"Write Notices",
	"Excl. Mode Transitions",
	"Data (Mbytes)",
	"Twin Creations",
	"Incoming Diffs",
	"Flush-Updates",
	"Shootdowns",
}
