// Package metrics is the pull-based runtime observability layer: a
// registry that aggregates live statistics from running clusters, a
// Prometheus text-format encoder, an opt-in HTTP server exposing
// /metrics, /status, and net/http/pprof, and a hot-page / hot-lock
// profiler built on the internal/trace event stream.
//
// The package sits above internal/stats and internal/trace and below
// the bench harness and command binaries: it knows nothing about
// internal/core. A running cluster is visible only through the Run
// interface, which core.Cluster satisfies; attachment happens through
// core.Config.Observer so neither apps.Run nor the protocol engine
// needed restructuring.
//
// Collection is strictly passive. Scrapes read the per-processor
// statistics with plain loads ("monitoring-grade": a mid-run value may
// be a few events stale), charge zero virtual time, and take no
// protocol lock, so an instrumented run produces bit-identical
// virtual-time results to an uninstrumented one — the determinism
// tests in internal/bench assert exactly that.
package metrics

import (
	"sort"
	"sync"
	"time"

	"cashmere/internal/stats"
)

// Run is the registry's view of one running (or finished) cluster.
// core.Cluster implements it; tests may supply fakes.
type Run interface {
	// SnapshotStats aggregates the per-processor statistics as they
	// stand now (monitoring-grade mid-run, exact once the run is done).
	SnapshotStats() stats.Total
	// LinkBusy returns cumulative busy virtual nanoseconds per Memory
	// Channel link, indexed by physical node.
	LinkBusy() []int64
	// HubBusy returns the shared hub's cumulative busy virtual
	// nanoseconds; ok is false when the fabric has no hub (switched).
	HubBusy() (int64, bool)
}

// Status is the live progress snapshot served at /status. The bench
// harness fills it from its runner; cashmere-run serves a single-cell
// equivalent.
type Status struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`

	// ETASeconds estimates the remaining wall time from the mean wall
	// duration of completed cells times the cells not yet done. Zero
	// until at least one cell has completed.
	ETASeconds float64 `json:"eta_seconds"`

	// Cells lists per-cell progress, running cells first.
	Cells []CellStatus `json:"cells,omitempty"`
}

// CellStatus is one benchmark cell's progress entry.
type CellStatus struct {
	Name  string `json:"name"`
	State string `json:"state"` // "queued", "running", "done", or "failed"
	// WallMS is the cell's wall-clock duration: elapsed so far for
	// running cells, final for done/failed ones, zero for queued.
	WallMS int64 `json:"wall_ms,omitempty"`
}

// Registry aggregates statistics across attached runs and serves them
// to the HTTP layer. The zero value is not ready; use NewRegistry.
type Registry struct {
	start time.Time
	now   func() time.Time // test hook

	mu     sync.Mutex
	nextID int64
	active map[int64]Run

	// Accumulated state of detached (completed) runs.
	completed     stats.Total
	completedRuns int64
	doneLinkBusy  []int64
	doneLinkVT    int64 // summed ExecNS of completed runs, the utilization denominator
	doneHubBusy   int64
	hubSeen       bool

	status func() Status     // nil until SetStatusFunc
	mp     func() []MPReport // nil until SetMPFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:  time.Now(),
		now:    time.Now,
		active: make(map[int64]Run),
	}
}

// Attach registers a run for live scraping and returns its detach
// function. Detach must be called exactly once, after the run has
// finished: it takes a final (now exact) snapshot and
// folds it into the registry's completed-run accumulators, so totals
// survive the run's cluster being garbage collected.
func (r *Registry) Attach(run Run) (detach func()) {
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	r.active[id] = run
	r.mu.Unlock()

	var once sync.Once
	return func() {
		once.Do(func() {
			final := run.SnapshotStats()
			busy := run.LinkBusy()
			hub, hasHub := run.HubBusy()

			r.mu.Lock()
			defer r.mu.Unlock()
			delete(r.active, id)
			r.completed.Merge(final)
			r.completedRuns++
			r.foldLinksLocked(busy, final.ExecNS, hub, hasHub)
		})
	}
}

// foldLinksLocked accumulates one run's link and hub busy time.
func (r *Registry) foldLinksLocked(busy []int64, execNS, hub int64, hasHub bool) {
	for len(r.doneLinkBusy) < len(busy) {
		r.doneLinkBusy = append(r.doneLinkBusy, 0)
	}
	for i, b := range busy {
		r.doneLinkBusy[i] += b
	}
	r.doneLinkVT += execNS
	if hasHub {
		r.doneHubBusy += hub
		r.hubSeen = true
	}
}

// SetStatusFunc installs the provider for the /status snapshot. Passing
// nil reverts /status to an empty snapshot.
func (r *Registry) SetStatusFunc(f func() Status) {
	r.mu.Lock()
	r.status = f
	r.mu.Unlock()
}

// SetMPFunc installs the provider of the latest multi-process rank
// reports; /metrics appends their families (WriteMPPrometheus) to
// every scrape. The cashmere-run launcher installs it when children
// stream observability reports. Passing nil removes the families.
func (r *Registry) SetMPFunc(f func() []MPReport) {
	r.mu.Lock()
	r.mp = f
	r.mu.Unlock()
}

// MPReports returns the latest multi-process rank reports, or nil when
// no provider is installed.
func (r *Registry) MPReports() []MPReport {
	r.mu.Lock()
	f := r.mp
	r.mu.Unlock()
	if f == nil {
		return nil
	}
	return f()
}

// Status returns the current progress snapshot.
func (r *Registry) Status() Status {
	r.mu.Lock()
	f := r.status
	r.mu.Unlock()
	if f == nil {
		return Status{}
	}
	return f()
}

// Snapshot is the registry's aggregate view at one instant, the input
// to the Prometheus encoder.
type Snapshot struct {
	Total         stats.Total // completed runs merged with live snapshots
	ActiveRuns    int
	DoneRuns      int64
	WallSeconds   float64
	LinkBusy      []int64 // per-link busy virtual ns, summed across runs
	LinkVirtualNS int64   // summed per-run virtual time: utilization denominator
	HubBusy       int64
	HasHub        bool
}

// Snapshot collects the registry's aggregate state: the completed-run
// accumulators plus a monitoring-grade snapshot of every active run.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Total:         r.completed,
		ActiveRuns:    len(r.active),
		DoneRuns:      r.completedRuns,
		WallSeconds:   r.now().Sub(r.start).Seconds(),
		LinkBusy:      append([]int64(nil), r.doneLinkBusy...),
		LinkVirtualNS: r.doneLinkVT,
		HubBusy:       r.doneHubBusy,
		HasHub:        r.hubSeen,
	}
	// Snapshot active runs outside any per-run lock but under the
	// registry lock so detach cannot double-count a run mid-scrape.
	ids := make([]int64, 0, len(r.active))
	for id := range r.active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		run := r.active[id]
		t := run.SnapshotStats()
		s.Total.Merge(t)
		busy := run.LinkBusy()
		for len(s.LinkBusy) < len(busy) {
			s.LinkBusy = append(s.LinkBusy, 0)
		}
		for i, b := range busy {
			s.LinkBusy[i] += b
		}
		s.LinkVirtualNS += t.ExecNS
		if hub, ok := run.HubBusy(); ok {
			s.HubBusy += hub
			s.HasHub = true
		}
	}
	r.mu.Unlock()
	return s
}
