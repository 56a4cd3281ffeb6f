package metrics_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/metrics"
	"cashmere/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeRun is a canned metrics.Run for registry tests.
type fakeRun struct {
	total stats.Total
	links []int64
	hub   int64
	has   bool
}

func (f *fakeRun) SnapshotStats() stats.Total { return f.total }
func (f *fakeRun) LinkBusy() []int64          { return append([]int64(nil), f.links...) }
func (f *fakeRun) HubBusy() (int64, bool)     { return f.hub, f.has }

func TestRegistryAttachDetach(t *testing.T) {
	r := metrics.NewRegistry()

	var run fakeRun
	run.total.Counts[stats.ReadFaults] = 7
	run.total.DataBytes = 4096
	run.total.ExecNS = 1000
	run.total.Procs = 4
	run.links = []int64{100, 200}
	run.hub, run.has = 300, true

	detach := r.Attach(&run)

	s := r.Snapshot()
	if s.ActiveRuns != 1 || s.DoneRuns != 0 {
		t.Fatalf("active snapshot: active=%d done=%d", s.ActiveRuns, s.DoneRuns)
	}
	if s.Total.Counts[stats.ReadFaults] != 7 {
		t.Fatalf("live counts not visible: %d", s.Total.Counts[stats.ReadFaults])
	}
	if s.LinkBusy[1] != 200 || s.LinkVirtualNS != 1000 {
		t.Fatalf("link busy %v denom %d", s.LinkBusy, s.LinkVirtualNS)
	}
	if !s.HasHub || s.HubBusy != 300 {
		t.Fatalf("hub busy %d has=%v", s.HubBusy, s.HasHub)
	}

	detach()
	detach() // second call must be a no-op, not a double count

	s = r.Snapshot()
	if s.ActiveRuns != 0 || s.DoneRuns != 1 {
		t.Fatalf("after detach: active=%d done=%d", s.ActiveRuns, s.DoneRuns)
	}
	if s.Total.Counts[stats.ReadFaults] != 7 || s.LinkBusy[0] != 100 || s.HubBusy != 300 {
		t.Fatalf("completed accumulators wrong: %+v", s)
	}

	// A second run's totals merge with the first's.
	run2 := run
	r.Attach(&run2)()
	s = r.Snapshot()
	if s.Total.Counts[stats.ReadFaults] != 14 || s.LinkBusy[1] != 400 || s.DoneRuns != 2 {
		t.Fatalf("merge across runs wrong: %+v", s)
	}
	if s.Total.ExecNS != 1000 {
		t.Fatalf("ExecNS should max, not sum: %d", s.Total.ExecNS)
	}
	if s.LinkVirtualNS != 2000 {
		t.Fatalf("utilization denominator should sum per-run exec: %d", s.LinkVirtualNS)
	}
}

func TestPrometheusEncodingDeterministic(t *testing.T) {
	snap := metrics.Snapshot{
		ActiveRuns:    1,
		DoneRuns:      2,
		WallSeconds:   1.5,
		LinkBusy:      []int64{500, 0, 250},
		LinkVirtualNS: 1000,
		HubBusy:       600,
		HasHub:        true,
	}
	snap.Total.Counts[stats.ReadFaults] = 3
	snap.Total.Counts[stats.Barriers] = 8
	snap.Total.Time[stats.CommWait] = 900
	snap.Total.DataBytes = 1 << 20
	snap.Total.ExecNS = 12345
	snap.Total.Procs = 8

	var a, b strings.Builder
	if err := metrics.WritePrometheus(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("encoding is not deterministic")
	}

	out := a.String()
	for _, want := range []string{
		`cashmere_counter_total{counter="Barriers"} 8`,
		`cashmere_counter_total{counter="ReadFaults"} 3`,
		`cashmere_component_time_ns{component="Comm & Wait"} 900`,
		`cashmere_link_busy_ns_total{link="2"} 250`,
		`cashmere_link_utilization{link="0"} 0.5`,
		`cashmere_hub_utilization 0.6`,
		`cashmere_virtual_time_ns 12345`,
		`cashmere_runs_active 1`,
		`cashmere_runs_completed_total 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing series %q in output:\n%s", want, out)
		}
	}
	checkPrometheusSyntax(t, out)
}

// checkPrometheusSyntax validates the exposition format line by line:
// every non-comment line is `name{labels} value` or `name value`, and
// every series name is introduced by HELP and TYPE comments first.
func checkPrometheusSyntax(t *testing.T, out string) {
	t.Helper()
	series := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_]+="(?:[^"\\]|\\.)*"\})? (-?[0-9.e+-]+|NaN)$`)
	declared := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Fatalf("malformed comment: %q", line)
			}
			declared[fields[2]] = true
			continue
		}
		m := series.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed series line: %q", line)
		}
		if !declared[m[1]] {
			t.Fatalf("series %q not introduced by HELP/TYPE", m[1])
		}
	}
}

// runSmallSOR executes the fixed small run the golden scrape test
// uses, attached to reg, and returns its result.
func runSmallSOR(t *testing.T, reg *metrics.Registry) core.Result {
	t.Helper()
	var detach func()
	cfg := core.Config{
		Nodes:        2,
		ProcsPerNode: 2,
		Protocol:     core.TwoLevel,
		Observer: func(c *core.Cluster) {
			detach = reg.Attach(c)
		},
	}
	res, err := apps.Run(apps.SmallSOR(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if detach == nil {
		t.Fatal("Observer was not called")
	}
	detach()
	return res
}

// TestScrapeMatchesRun asserts the /metrics endpoint reports exactly
// the statistics the run itself returned — the scrape path adds or
// loses nothing.
func TestScrapeMatchesRun(t *testing.T) {
	reg := metrics.NewRegistry()
	res := runSmallSOR(t, reg)

	snap := reg.Snapshot()
	if snap.Total.Counts != res.Counts || snap.Total.Time != res.Time ||
		snap.Total.DataBytes != res.DataBytes || snap.Total.ExecNS != res.ExecNS {
		t.Fatalf("registry snapshot diverges from run result:\nsnap %+v\nrun  %+v", snap.Total, res.Total)
	}

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	checkPrometheusSyntax(t, body)
	if !strings.Contains(body, `cashmere_link_utilization{link="1"}`) {
		t.Errorf("missing link utilization gauge:\n%s", body)
	}

	status := get(t, srv.URL+"/status")
	var st metrics.Status
	if err := json.Unmarshal([]byte(status), &st); err != nil {
		t.Fatalf("/status is not valid JSON: %v\n%s", err, status)
	}
}

// TestGoldenEndpoints compares /metrics (wall-clock line scrubbed) and
// /status against committed golden files for a fixed small run. The
// run's virtual-time results are a function of its configuration (see
// internal/bench's determinism tests), so the scrape is byte-stable.
// Regenerate with -update.
func TestGoldenEndpoints(t *testing.T) {

	reg := metrics.NewRegistry()
	runSmallSOR(t, reg)
	reg.SetStatusFunc(func() metrics.Status {
		return metrics.Status{
			Queued: 1, Running: 0, Done: 1, Failed: 0,
			ETASeconds: 2.5,
			Cells: []metrics.CellStatus{
				{Name: "SOR/2L/2:2", State: "done", WallMS: 42},
				{Name: "SOR/2L/4:1", State: "queued"},
			},
		}
	})

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	wall := regexp.MustCompile(`(?m)^cashmere_wall_time_seconds .*$`)
	gotMetrics := wall.ReplaceAllString(get(t, srv.URL+"/metrics"), "cashmere_wall_time_seconds X")
	compareGolden(t, "metrics_golden.txt", gotMetrics)
	compareGolden(t, "status_golden.json", get(t, srv.URL+"/status"))
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("%s diverges from golden; regenerate with -update if intended\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}
