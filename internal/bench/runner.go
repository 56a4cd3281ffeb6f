package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/costs"
	"cashmere/internal/metrics"
	"cashmere/internal/policy"
	"cashmere/internal/trace"
)

// Suite executes a plan of experiment cells through a bounded worker
// pool: cells execute in parallel (each is an independent simulated
// cluster), a panicking cell reports an error instead of killing the
// evaluation, and cells can be bounded by a wall-clock timeout.
type Suite struct {
	// Quick selects the tiny test problem sizes instead of the default
	// (scaled-down) evaluation sizes.
	Quick bool

	// exec performs one experiment cell; tests may substitute it to
	// count or fail executions.
	exec func(c Cell) CellResult

	workers  int
	timeout  time.Duration
	progress io.Writer // nil: no progress line

	// traceLabel selects the cell (app/variant/topology) whose run is
	// recorded by a structured event tracer; empty disables tracing.
	traceLabel string
	tracePages map[int]bool

	// metrics, when set, receives every cell's cluster for live
	// scraping: clusters attach through core.Config.Observer as they
	// are built and detach (folding their final statistics into the
	// registry) when their run completes.
	metrics *metrics.Registry

	mu     sync.Mutex
	table  *ResultsFile // the table Run is filling; nil before Run
	traced *trace.Tracer
}

// NewSuite returns a suite with a worker pool of GOMAXPROCS cells.
func NewSuite(quick bool) *Suite {
	s := &Suite{Quick: quick, workers: runtime.GOMAXPROCS(0)}
	s.exec = s.execute
	return s
}

// SetWorkers sets the number of experiment cells executing
// concurrently.
func (s *Suite) SetWorkers(n int) { s.workers = max(n, 1) }

// SetTimeout bounds each cell's host wall-clock execution time; a cell
// exceeding it is marked failed (its error appears in the rendered
// tables and the JSON results) while the rest of the evaluation
// proceeds. Zero disables the bound.
func (s *Suite) SetTimeout(d time.Duration) { s.timeout = d }

// SetProgress enables a live progress line (cells done/total, current
// slowest cell) written to w, typically stderr, while Run executes.
func (s *Suite) SetProgress(w io.Writer) { s.progress = w }

// SetTrace arranges for the cell with the given "app/variant/topology"
// label (e.g. "SOR/2L/32:4") to run under a structured event tracer
// (see internal/trace). pages optionally restricts per-page live notes
// to those page numbers; nil records all pages. Call before Run;
// retrieve the recorder with TraceResult.
func (s *Suite) SetTrace(cell string, pages map[int]bool) {
	s.traceLabel = cell
	s.tracePages = pages
}

// TraceResult returns the tracer of the cell selected with SetTrace,
// or nil if that cell has not (successfully) executed.
func (s *Suite) TraceResult() *trace.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traced
}

// SetMetrics attaches the suite to a live metrics registry: every
// cell's cluster becomes scrapeable through /metrics while it runs,
// and the registry's /status snapshot is served from the results table
// (per-cell queued/running/done/failed progress with an ETA). Call
// before Run.
func (s *Suite) SetMetrics(reg *metrics.Registry) {
	s.metrics = reg
	reg.SetStatusFunc(s.Status)
}

// Run executes every cell once, in the order given, and returns the
// results table, one row per cell in that order. cells must be
// distinct, as Plan returns them.
func (s *Suite) Run(cells []Cell) *ResultsFile {
	rf := &ResultsFile{Tool: "cashmere-bench", Schema: 1, Quick: s.Quick, Workers: s.workers,
		Cells: make([]CellResult, len(cells))}
	for i, c := range cells {
		rf.Cells[i] = CellResult{App: c.App, Variant: c.V.Label(), Topology: c.Topo.String()}
	}
	s.mu.Lock()
	s.table = rf
	s.mu.Unlock()

	next := 0
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s.mu.Lock()
				i := next
				next++
				if i >= len(cells) {
					s.mu.Unlock()
					return
				}
				start := time.Now()
				rf.Cells[i].start = start
				s.renderProgress()
				s.mu.Unlock()

				// A serial run starts every cell on a collected heap.
				// Otherwise where the cells before it left the GC cycle
				// decides when a collection interrupts its processors,
				// and at GOMAXPROCS=1 -j 1 that host schedule picks its
				// virtual-time tie-breaks: with this, serial runs repeat
				// bit for bit and the CI gates stop flaking. Parallel
				// runs are not reproducible either way, and a collection
				// there only stalls the other workers' cells.
				if s.workers == 1 {
					runtime.GC()
				}

				out := s.execCell(cells[i])

				s.mu.Lock()
				out.App, out.Variant, out.Topology = rf.Cells[i].App, rf.Cells[i].Variant, rf.Cells[i].Topology
				out.start, out.wall, out.done = start, time.Since(start), true
				rf.Cells[i] = out
				s.renderProgress()
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if s.progress != nil && len(cells) > 0 {
		fmt.Fprintln(s.progress) // end the progress line
	}
	return rf
}

// execCell performs one cell with panic recovery and, if configured, a
// wall-clock timeout. A panicking cell (a diverging application or a
// protocol bug) reports an error instead of killing the whole
// evaluation; a timed-out cell is marked failed and abandoned (its
// goroutine cannot be cancelled — the cluster runs to completion or
// diverges in the background — but the rest of the evaluation
// proceeds).
func (s *Suite) execCell(c Cell) CellResult {
	ch := make(chan CellResult, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- CellResult{Error: fmt.Sprintf("bench: %s panicked: %v\n%s", c, p, debug.Stack())}
			}
		}()
		ch <- s.exec(c)
	}()
	if s.timeout <= 0 {
		return <-ch
	}
	timer := time.NewTimer(s.timeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out
	case <-timer.C:
		return CellResult{Error: fmt.Sprintf("bench: %s timed out after %v (cell abandoned)", c, s.timeout)}
	}
}

// execute runs one experiment cell on a fresh application instance.
func (s *Suite) execute(c Cell) CellResult {
	var app apps.App
	for _, a := range suiteApps(s.Quick) {
		if a.Name() == c.App {
			app = a
			break
		}
	}
	if app == nil {
		return CellResult{Error: fmt.Sprintf("bench: unknown application %q", c.App)}
	}
	cfg := core.Config{
		Nodes:         c.Topo.Nodes,
		ProcsPerNode:  c.Topo.ProcsPerNode,
		Protocol:      c.V.Kind,
		HomeOpt:       c.V.HomeOpt,
		LockBasedMeta: c.V.LockBased,
		UseInterrupts: c.V.Interrupts,
	}
	var tr *trace.Tracer
	if c.String() == s.traceLabel {
		tr = trace.New(trace.Config{
			Procs: c.Topo.Procs(),
			Links: c.Topo.Nodes,
			Pages: s.tracePages,
		})
		cfg.Trace = tr
	}
	var detach func()
	if s.metrics != nil {
		cfg.Observer = func(cl *core.Cluster) { detach = s.metrics.Attach(cl) }
	}
	if c.V.Adaptive {
		// Wire chains the Observer above, so metrics still attach.
		policy.Wire(&cfg, policy.Defaults())
	}
	res, err := apps.Run(app, cfg)
	if detach != nil {
		detach()
	}
	if err != nil {
		return CellResult{Error: err.Error()}
	}
	t := res.Total
	out := CellResult{
		Procs:     t.Procs,
		ExecNS:    t.ExecNS,
		DataBytes: t.DataBytes,
		Counts:    t.CountsMap(),
		TimeNS:    t.TimeMap(),
		// Verify computed the sequential reference on this instance,
		// and the reference charges only the node bus bandwidth every
		// topology shares, so this reads the cached value.
		SeqNS: app.SeqTime(costs.Default()),
	}
	if tr != nil {
		sum := tr.Summary()
		out.Trace = &sum
		out.Profile = metrics.BuildProfile(tr.Recording(), 20)
		s.mu.Lock()
		s.traced = tr
		s.mu.Unlock()
	}
	return out
}

// Status returns the evaluation's live progress snapshot, read from the
// results table: running cells first (longest first), then queued, then
// completed, and an ETA extrapolated from the mean wall time of
// completed cells across the worker pool.
func (s *Suite) Status() metrics.Status {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	var st metrics.Status
	if s.table == nil {
		return st
	}
	var running, queued, finished []metrics.CellStatus
	var doneWall time.Duration
	for _, c := range s.table.Cells {
		cs := metrics.CellStatus{Name: cellLabel(c)}
		switch {
		case c.start.IsZero():
			st.Queued++
			cs.State = "queued"
			queued = append(queued, cs)
		case !c.done:
			st.Running++
			cs.State, cs.WallMS = "running", now.Sub(c.start).Milliseconds()
			running = append(running, cs)
		default:
			cs.State, cs.WallMS = "done", c.wall.Milliseconds()
			if c.Error != "" {
				cs.State = "failed"
				st.Failed++
			} else {
				st.Done++
			}
			doneWall += c.wall
			finished = append(finished, cs)
		}
	}

	if completed := st.Done + st.Failed; completed > 0 {
		mean := doneWall.Seconds() / float64(completed)
		st.ETASeconds = float64(st.Queued+st.Running) * mean / float64(s.workers)
	}

	byWall := func(cells []metrics.CellStatus) {
		sort.SliceStable(cells, func(i, j int) bool { return cells[i].WallMS > cells[j].WallMS })
	}
	byWall(running)
	byWall(finished)
	st.Cells = append(append(running, queued...), finished...)
	return st
}

// renderProgress rewrites the live progress line from the results
// table: cells done/total, cells running, and the cell that has been
// running the longest (the current slowest). Called with s.mu held.
func (s *Suite) renderProgress() {
	if s.progress == nil {
		return
	}
	done, running := 0, 0
	var slowest CellResult
	for _, c := range s.table.Cells {
		switch {
		case c.done:
			done++
		case !c.start.IsZero():
			running++
			if slowest.start.IsZero() || c.start.Before(slowest.start) {
				slowest = c
			}
		}
	}
	line := fmt.Sprintf("\rbench: %d/%d cells done, %d running", done, len(s.table.Cells), running)
	if running > 0 {
		line += fmt.Sprintf(", slowest %s (%.1fs)", cellLabel(slowest), time.Since(slowest.start).Seconds())
	}
	// Pad to overwrite a longer previous line.
	if len(line) < 79 {
		line += fmt.Sprintf("%*s", 79-len(line), "")
	}
	fmt.Fprint(s.progress, line)
}
