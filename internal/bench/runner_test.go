package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cashmere/internal/cli"
	"cashmere/internal/core"
	"cashmere/internal/topology"
)

// cellsOf returns one 2L cell at 32:4 per named application, the shape
// the pool tests feed a fake executor.
func cellsOf(names ...string) []Cell {
	var cells []Cell
	for _, name := range names {
		cells = append(cells, Cell{name, Variant{Kind: core.TwoLevel}, FullCluster})
	}
	return cells
}

// TestWorkerPoolBounded checks that at most -j cells execute at once.
func TestWorkerPoolBounded(t *testing.T) {
	s := NewSuite(true)
	s.SetWorkers(2)
	var cur, peak atomic.Int64
	s.exec = func(c Cell) CellResult {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		cur.Add(-1)
		return CellResult{}
	}
	var names []string
	for i := 0; i < 8; i++ {
		names = append(names, fmt.Sprintf("app%d", i))
	}
	s.Run(cellsOf(names...))
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d exceeds pool width 2", p)
	}
}

// TestPanicIsolation checks that one panicking cell reports an error
// and leaves the rest of the evaluation intact.
func TestPanicIsolation(t *testing.T) {
	s := NewSuite(true)
	s.exec = func(c Cell) CellResult {
		if c.App == "boom" {
			panic("injected divergence")
		}
		return CellResult{ExecNS: 7}
	}
	rf := s.Run(cellsOf("boom", "fine"))
	if err := rf.Cells[0].Error; !strings.Contains(err, "panicked") ||
		!strings.Contains(err, "injected divergence") {
		t.Fatalf("panicking cell error = %q, want panic report", err)
	}
	if fine := rf.Cells[1]; fine.Error != "" || fine.ExecNS != 7 {
		t.Errorf("healthy cell beside a panic: %+v", fine)
	}
	fails := rf.Failed()
	if len(fails) != 1 || !strings.Contains(fails[0], "boom/2L/32:4") {
		t.Errorf("Failed = %v, want one entry for boom", fails)
	}
}

// TestTimeoutMarksCellFailed checks that a cell exceeding the per-run
// wall-clock timeout is marked failed while the rest of the plan runs.
func TestTimeoutMarksCellFailed(t *testing.T) {
	s := NewSuite(true)
	s.SetWorkers(1)
	s.SetTimeout(20 * time.Millisecond)
	release := make(chan struct{})
	s.exec = func(c Cell) CellResult {
		if c.App == "slow" {
			<-release
		}
		return CellResult{}
	}
	rf := s.Run(cellsOf("slow", "quick"))
	close(release) // let the abandoned goroutine finish
	if err := rf.Cells[0].Error; !strings.Contains(err, "timed out") {
		t.Fatalf("slow cell error = %q, want timeout", err)
	}
	if err := rf.Cells[1].Error; err != "" {
		t.Errorf("cell after timeout failed: %v", err)
	}
	if fails := rf.Failed(); len(fails) != 1 {
		t.Errorf("Failed = %v, want the timed-out cell only", fails)
	}
}

// TestConcurrentSuiteMatchesSerial plans -all, the whole evaluation,
// and runs it through a counting fake executor whose result is a pure
// function of the cell, once at 1 worker and once at 8: every distinct
// cell must execute exactly once per run, and the two tables must be
// equal — the pool must not mix up, drop, or duplicate cells. Runs under
// -race in CI.
func TestConcurrentSuiteMatchesSerial(t *testing.T) {
	secs, err := Sections(cli.BenchOptions{All: true, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan(secs...)
	// 8 apps x (6 Figure 7 variants at 9 topologies + 2LS+intr and 2L+lk at 32:4).
	if len(plan) != 448 {
		t.Fatalf("-all plans %d cells, want 448", len(plan))
	}

	run := func(workers int) []byte {
		s := NewSuite(true)
		s.SetWorkers(workers)
		var mu sync.Mutex
		execs := make(map[Cell]int)
		s.exec = func(c Cell) CellResult {
			mu.Lock()
			execs[c]++
			mu.Unlock()
			h := int64(len(c.App)*1000003 + c.Topo.Nodes*8191 + c.Topo.ProcsPerNode*131 + int(c.V.Kind)*17)
			if c.V.HomeOpt || c.V.LockBased || c.V.Interrupts {
				h++
			}
			time.Sleep(100 * time.Microsecond) // widen interleaving windows
			return CellResult{ExecNS: h, DataBytes: h * 3, Counts: map[string]int64{"Barriers": h % 97}}
		}
		rf := s.Run(plan)
		if len(execs) != len(plan) {
			t.Errorf("%d workers: %d distinct cells executed, want %d", workers, len(execs), len(plan))
		}
		for c, n := range execs {
			if n != 1 {
				t.Errorf("%d workers: %s executed %d times", workers, c, n)
			}
		}
		buf, err := json.Marshal(rf.Cells)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if serial, parallel := run(1), run(8); !bytes.Equal(serial, parallel) {
		t.Error("the 8-worker table differs from the serial one")
	}
}

// TestConcurrentRealAppAllProtocols runs a real quick-size application
// across all four protocols simultaneously through the pool (under
// -race in CI). Every run is validated against the sequential
// reference inside apps.Run.
func TestConcurrentRealAppAllProtocols(t *testing.T) {
	s := NewSuite(true)
	s.SetWorkers(4)
	var cells []Cell
	for _, v := range FourProtocols {
		cells = append(cells, Cell{"SOR", v, topology.New(2, 2)})
	}
	rf := s.Run(cells)
	for _, c := range rf.Cells {
		if c.Error != "" || c.ExecNS <= 0 {
			t.Errorf("%s: exec_ns %d, error %q", cellLabel(c), c.ExecNS, c.Error)
		}
	}
}

// TestResultsFileSchema checks that completed and failed cells
// serialize into the documented results-file schema, sorted for stable
// diffs.
func TestResultsFileSchema(t *testing.T) {
	s := NewSuite(true)
	s.SetWorkers(2)
	s.exec = func(c Cell) CellResult {
		if c.App == "bad" {
			return CellResult{Error: "synthetic failure"}
		}
		return CellResult{ExecNS: 42, DataBytes: 99, Procs: c.Topo.Procs(), SeqNS: 84,
			Counts: map[string]int64{"LockAcquires": 5}}
	}
	v := Variant{Kind: core.TwoLevel}
	topo := topology.New(2, 2)
	rf := s.Run([]Cell{{"zzz", v, topo}, {"bad", v, topo}, {"aaa", v, topo}})

	var buf bytes.Buffer
	if _, err := rf.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "wall_ns") {
		t.Errorf("results file still carries wall_ns:\n%s", buf.String())
	}
	var file ResultsFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("results file is not valid JSON: %v\n%s", err, buf.String())
	}
	if file.Tool != "cashmere-bench" || file.Schema != 1 || !file.Quick || file.Workers != 2 {
		t.Errorf("header = %+v", file)
	}
	if len(file.Cells) != 3 {
		t.Fatalf("%d cells, want 3", len(file.Cells))
	}
	if file.Cells[0].App != "aaa" || file.Cells[1].App != "bad" || file.Cells[2].App != "zzz" {
		t.Errorf("cells not sorted: %s %s %s",
			file.Cells[0].App, file.Cells[1].App, file.Cells[2].App)
	}
	ok := file.Cells[2]
	if ok.ExecNS != 42 || ok.DataBytes != 99 || ok.Procs != 4 || ok.SeqNS != 84 ||
		ok.Counts["LockAcquires"] != 5 || ok.Error != "" || cellLabel(ok) != "zzz/2L/4:2" {
		t.Errorf("good cell = %+v", ok)
	}
	bad := file.Cells[1]
	if bad.Error != "synthetic failure" || bad.ExecNS != 0 || cellLabel(bad) != "bad/2L/4:2" {
		t.Errorf("failed cell = %+v", bad)
	}
}

// TestProgressLine checks the live progress line renders counts from
// the results table and is terminated when Run returns.
func TestProgressLine(t *testing.T) {
	s := NewSuite(true)
	s.SetWorkers(1)
	var buf bytes.Buffer
	s.SetProgress(&buf)
	s.exec = func(c Cell) CellResult { return CellResult{} }
	s.Run(cellsOf("one", "two"))
	out := buf.String()
	for _, want := range []string{"0/2 cells done, 1 running, slowest one/2L/32:4", "2/2 cells done, 0 running"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%q", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("Run did not terminate the progress line")
	}
}
