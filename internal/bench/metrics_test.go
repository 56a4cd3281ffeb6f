package bench

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/metrics"
	"cashmere/internal/topology"
)

// TestMetricsPreservesVirtualTime is the instrumented-equals-
// uninstrumented guarantee of the metrics layer, the counterpart of
// TestTracingPreservesVirtualTime: attaching a cluster to a live
// metrics registry — with a goroutine scraping it concurrently the
// whole time — must not change any virtual-time statistic, because
// scrapes are plain reads that charge nothing and take no protocol
// lock. Runs under the same conditions as TestVirtualTimeDeterminism
// (no -race: scrapes intentionally race the owner goroutines'
// plain-field counters, which is monitoring-grade by design but would
// be flagged by the detector; GOMAXPROCS pinned for stable
// tie-breaks).
func TestMetricsPreservesVirtualTime(t *testing.T) {
	if raceEnabled {
		t.Skip("mid-run scrapes are deliberate monitoring-grade data races; see comment")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The scraper allocates, so a collection would land in the observed
	// run and not the plain one, and at GOMAXPROCS=1 that alone moves
	// tie-breaks: keep the collector off for both.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := core.Config{
		Nodes:        FullCluster.Nodes,
		ProcsPerNode: FullCluster.ProcsPerNode,
		Protocol:     core.TwoLevel,
	}
	plain, err := apps.Run(freshApp(t, "SOR"), cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	var detach func()
	cfg.Observer = func(c *core.Cluster) { detach = reg.Attach(c) }

	// Scrape continuously while the observed run executes.
	var stop atomic.Bool
	scraped := make(chan int)
	go func() {
		n := 0
		for !stop.Load() {
			reg.Snapshot()
			n++
		}
		scraped <- n
	}()

	observed, err := apps.Run(freshApp(t, "SOR"), cfg)
	stop.Store(true)
	n := <-scraped
	if err != nil {
		t.Fatal(err)
	}
	if detach == nil {
		t.Fatal("Observer was not invoked")
	}
	detach()
	if n == 0 {
		t.Fatal("scraper never ran")
	}

	compareResults(t, plain, observed)

	// After detach the registry's totals are exact.
	snap := reg.Snapshot()
	if snap.Total.Counts != observed.Counts || snap.Total.ExecNS != observed.ExecNS {
		t.Errorf("registry totals diverge from the run result:\nreg %+v\nrun %+v", snap.Total, observed.Total)
	}
	if snap.DoneRuns != 1 || snap.ActiveRuns != 0 {
		t.Errorf("run accounting: done=%d active=%d", snap.DoneRuns, snap.ActiveRuns)
	}
}

// TestSuiteSetMetrics checks the bench plumbing: every executed cell
// attaches to and detaches from the registry, and the /status snapshot
// reports the completed cells.
func TestSuiteSetMetrics(t *testing.T) {
	s := NewSuite(true)
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)

	v := Variant{Kind: core.TwoLevel}
	rf := s.Run([]Cell{{"SOR", v, topology.New(2, 2)}, {"LU", v, topology.New(2, 2)}})
	if fails := rf.Failed(); len(fails) > 0 {
		t.Fatal(fails)
	}

	snap := reg.Snapshot()
	if snap.DoneRuns != 2 || snap.ActiveRuns != 0 {
		t.Fatalf("registry run accounting: done=%d active=%d", snap.DoneRuns, snap.ActiveRuns)
	}
	if snap.Total.Counts[0] == 0 && snap.Total.DataBytes == 0 {
		t.Error("registry accumulated no statistics")
	}
	if len(snap.LinkBusy) != 2 {
		t.Errorf("link busy gauges: %v", snap.LinkBusy)
	}

	st := reg.Status()
	if st.Done != 2 || st.Running != 0 || st.Queued != 0 || st.Failed != 0 {
		t.Fatalf("status: %+v", st)
	}
	if len(st.Cells) != 2 {
		t.Fatalf("status cells: %+v", st.Cells)
	}
	for _, c := range st.Cells {
		if c.State != "done" {
			t.Errorf("cell %s state %q", c.Name, c.State)
		}
	}
}

// TestSuiteProfileInJSON checks that the traced cell's attribution
// profile lands on that cell's row of the results table, and only there.
func TestSuiteProfileInJSON(t *testing.T) {
	s := NewSuite(true)
	s.SetTrace("SOR/2L/8:2", nil)

	v := Variant{Kind: core.TwoLevel}
	rf := s.Run([]Cell{{"LU", v, topology.New(4, 2)}, {"SOR", v, topology.New(4, 2)}})
	if fails := rf.Failed(); len(fails) > 0 {
		t.Fatal(fails)
	}

	var withProfile int
	for _, c := range rf.Cells {
		if c.Profile == nil {
			continue
		}
		withProfile++
		if cellLabel(c) != "SOR/2L/8:2" {
			t.Errorf("profile attached to %s", cellLabel(c))
		}
		if len(c.Profile.Pages) == 0 {
			t.Error("traced cell's profile has no pages")
		}
		for _, pg := range c.Profile.Pages {
			if pg.Pattern == "" {
				t.Errorf("page %d missing sharing pattern", pg.Page)
			}
		}
	}
	if withProfile != 1 {
		t.Errorf("cells with profile = %d, want 1", withProfile)
	}
}

// TestRunnerStatusStates runs a plan whose cells block, verifying the
// queued → running → done transitions /status reads from the results
// table.
func TestRunnerStatusStates(t *testing.T) {
	s := NewSuite(true)
	s.SetWorkers(1)
	if st := s.Status(); st.Queued+st.Running+st.Done+st.Failed != 0 || len(st.Cells) != 0 {
		t.Fatalf("status before Run: %+v", st)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 2) // one send per cell
	s.exec = func(c Cell) CellResult {
		started <- struct{}{}
		<-release
		return CellResult{}
	}

	done := make(chan *ResultsFile)
	go func() { done <- s.Run(cellsOf("A", "B")) }()
	<-started // A holds the single worker slot, B is queued behind it

	st := s.Status()
	if st.Running != 1 || st.Queued != 1 {
		t.Fatalf("status mid-run: %+v", st)
	}
	if st.Cells[0].State != "running" || st.Cells[1].State != "queued" {
		t.Fatalf("cell ordering: %+v", st.Cells)
	}

	close(release)
	<-done
	st = s.Status()
	if st.Done != 2 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("final status: %+v", st)
	}
}
