package bench

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"cashmere/internal/core"
	"cashmere/internal/costs"
	"cashmere/internal/stats"
	"cashmere/internal/topology"
)

func TestVariantLabels(t *testing.T) {
	cases := map[string]Variant{
		"2L":       {Kind: core.TwoLevel},
		"2LS":      {Kind: core.TwoLevelSD},
		"1LD":      {Kind: core.OneLevelDiff},
		"1L":       {Kind: core.OneLevelWrite},
		"1LD+H":    {Kind: core.OneLevelDiff, HomeOpt: true},
		"2L+lk":    {Kind: core.TwoLevel, LockBased: true},
		"2LS+intr": {Kind: core.TwoLevelSD, Interrupts: true},
	}
	for want, v := range cases {
		if got := v.Label(); got != want {
			t.Errorf("Label() = %q, want %q", got, want)
		}
	}
}

func TestTopologyLabels(t *testing.T) {
	if got := (Cell{"SOR", Variant{Kind: core.TwoLevel}, FullCluster}).String(); got != "SOR/2L/32:4" {
		t.Errorf("cell label = %q", got)
	}
	// The figure's nine configurations match the paper.
	want := []string{"4:1", "4:4", "8:1", "8:2", "8:4", "16:2", "16:4", "24:3", "32:4"}
	if len(Figure7Topologies) != len(want) {
		t.Fatalf("%d topologies, want %d", len(Figure7Topologies), len(want))
	}
	for i, topo := range Figure7Topologies {
		if topo.String() != want[i] {
			t.Errorf("topology %d = %s, want %s", i, topo, want[i])
		}
	}
}

func TestMeasureBasicOpsMatchTable1(t *testing.T) {
	m := costs.Default()
	us := int64(time.Microsecond)
	two, err := MeasureBasicOps(core.TwoLevel)
	if err != nil {
		t.Fatal(err)
	}
	one, err := MeasureBasicOps(core.OneLevelDiff)
	if err != nil {
		t.Fatal(err)
	}
	approx := func(name string, got, want, tol int64) {
		t.Helper()
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %dus, want %dus (+/- %dus)", name, got/us, want/us, tol/us)
		}
	}
	// Paper Table 1: 19/11us locks; 58/41us and 321/364us barriers;
	// 824/777us remote transfers; 467us local.
	approx("2L lock", two.LockAcquire, m.LockAcquire2L, 2*us)
	approx("1L lock", one.LockAcquire, m.LockAcquire1L, 2*us)
	approx("2L barrier2", two.Barrier2, m.Barrier2Proc2L, 5*us)
	approx("1L barrier2", one.Barrier2, m.Barrier2Proc1L, 5*us)
	approx("2L barrier32", two.Barrier32, m.Barrier32Proc2L, 40*us)
	approx("1L barrier32", one.Barrier32, m.Barrier32Proc1L, 40*us)
	approx("2L remote xfer", two.PageTransferRemote, m.PageTransferRemote2L, 90*us)
	approx("1L remote xfer", one.PageTransferRemote, m.PageTransferRemote1L, 90*us)
	approx("1L local xfer", one.PageTransferLocal, m.PageTransferLocal, 90*us)
	if two.PageTransferLocal != m.PageTransferLocal {
		t.Errorf("2L local transfer = %d, want platform constant", two.PageTransferLocal)
	}
	// The relationships the paper calls out: two-level locks cost more,
	// two-level barriers cost less at scale.
	if two.LockAcquire <= one.LockAcquire {
		t.Error("2L lock not more expensive than 1L lock")
	}
	if two.Barrier32 >= one.Barrier32 {
		t.Error("2L 32-proc barrier not cheaper than 1L")
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1.Render(&buf, &ResultsFile{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Lock Acquire", "Barrier", "Page Transfer (Remote)", "2L/2LS"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestBasicCostsOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Costs.Render(&buf, &ResultsFile{}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Twin creation", "Incoming diff", "Directory update", "199"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("BasicCosts missing %q", want)
		}
	}
}

func TestTable2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2.Render(&buf, &ResultsFile{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range AppNames() {
		if !strings.Contains(out, name) {
			t.Errorf("Table2 missing %s", name)
		}
	}
}

// TestSuiteRunCaching checks that sections sharing cells — Table 3,
// Figure 6 and both ablations all read the 32:4 cells of 2L — execute
// each shared cell once, and that a cell of an unknown application is
// a failed row rather than a crash.
func TestSuiteRunCaching(t *testing.T) {
	s := NewSuite(true)
	s.SetWorkers(4)
	var mu sync.Mutex
	execs := make(map[Cell]int)
	s.exec = func(c Cell) CellResult {
		mu.Lock()
		execs[c]++
		mu.Unlock()
		return CellResult{ExecNS: 1}
	}
	rf := s.Run(Plan(Table3, Figure6, Shootdown, LockFree))
	// 2L, 2LS, 1LD, 1L, 2LS+intr and 2L+lk, all at 32:4.
	if want := 6 * len(AppNames()); len(rf.Cells) != want || len(execs) != want {
		t.Errorf("%d rows, %d distinct cells executed, want %d", len(rf.Cells), len(execs), want)
	}
	for c, n := range execs {
		if n != 1 {
			t.Errorf("%s executed %d times", c, n)
		}
	}

	real := NewSuite(true)
	rf = real.Run([]Cell{{"nope", Variant{Kind: core.TwoLevel}, topology.New(2, 2)}})
	if len(rf.Failed()) != 1 || !strings.Contains(rf.Cells[0].Error, "unknown application") {
		t.Errorf("unknown app row = %+v", rf.Cells[0])
	}
}

// TestSpeedupPositive checks the speedup's numerator: for every quick
// application the seq_ns a cell records (read from the instance its own
// Verify ran the sequential reference on) equals SeqTime on a fresh
// instance, and the speedup it gives is positive. One processor on one
// node keeps the cells cheap and free of coherence traffic.
func TestSpeedupPositive(t *testing.T) {
	var cells []Cell
	for _, name := range AppNames() {
		cells = append(cells, Cell{name, Variant{Kind: core.TwoLevel}, topology.New(1, 1)})
	}
	rf := NewSuite(true).Run(cells)
	for _, c := range rf.Cells {
		if c.Error != "" {
			t.Errorf("%s: %s", cellLabel(c), c.Error)
			continue
		}
		if want := freshApp(t, c.App).SeqTime(costs.Default()); c.SeqNS != want {
			t.Errorf("%s: seq_ns %d, want %d", cellLabel(c), c.SeqNS, want)
		}
		if sp := c.speedup(); sp <= 0 {
			t.Errorf("%s: speedup = %f", cellLabel(c), sp)
		}
	}
}

// TestRendersFromResultsFile renders every cell-reading section from a
// hand-built results table, with no execution: one cell has failed and
// must show as FAIL, and the rest render from the table's numbers.
func TestRendersFromResultsFile(t *testing.T) {
	secs := []Section{Table3, Figure6, Figure7, Shootdown, LockFree, Adaptive(true), Scaling(topology.New(2, 4))}
	rf := &ResultsFile{Quick: true}
	for _, c := range Plan(secs...) {
		cr := CellResult{
			App: c.App, Variant: c.V.Label(), Topology: c.Topo.String(),
			ExecNS: 2e9, SeqNS: 5e9, DataBytes: 3 << 20,
			Counts: map[string]int64{stats.Barriers.String(): 7},
			TimeNS: map[string]int64{stats.User.String(): 1},
		}
		if cellLabel(cr) == "SOR/2L/32:4" {
			cr = CellResult{App: "SOR", Variant: "2L", Topology: "32:4", Error: "synthetic failure"}
		}
		rf.Cells = append(rf.Cells, cr)
	}
	for i, want := range [][]string{
		{"FAIL", "3.00"}, // Table 3: the failed column, then data MB
		{"SOR      2L     FAIL (2L baseline: synthetic failure)"},
		{"  2L" + strings.Repeat(" ", 9) + "FAIL |", "2.50"}, // Figure 7: speedup 5e9/2e9
		{"SOR" + strings.Repeat(" ", 14) + "FAIL"},
		{"SOR" + strings.Repeat(" ", 16) + "FAIL"},
		{"at 16:4", "2.000"},
		{"8:4     2.50"},
	} {
		var buf bytes.Buffer
		if err := secs[i].Render(&buf, rf); err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if !strings.Contains(buf.String(), w) {
				t.Errorf("section %d missing %q:\n%s", i, w, buf.String())
			}
		}
	}
}

func TestTable3AndFigure6Quick(t *testing.T) {
	s := NewSuite(true)
	rf := s.Run(Plan(Table3, Figure6))
	var buf bytes.Buffer
	if err := Table3.Render(&buf, rf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"--- 2L ---", "--- 1LD ---", "Twin Creations", "Data (Mbytes)", "Shootdowns"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
	buf.Reset()
	if err := Figure6.Render(&buf, rf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Comm&Wait") {
		t.Error("Figure6 missing breakdown header")
	}
}

func TestAblationsQuick(t *testing.T) {
	s := NewSuite(true)
	rf := s.Run(Plan(Shootdown, LockFree))
	var buf bytes.Buffer
	if err := Shootdown.Render(&buf, rf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2LS poll") {
		t.Error("shootdown ablation missing column")
	}
	buf.Reset()
	if err := LockFree.Render(&buf, rf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lock-based") {
		t.Error("lock-free ablation missing column")
	}
}

func TestShapeTwoLevelWinsOnSharingHeavyApps(t *testing.T) {
	// The paper's headline: 2L transfers less data than 1LD for the
	// sharing-heavy applications (Gauss shows ~4x) and never does
	// worse. Quick sizes are noisy, so only the direction is checked.
	var cells []Cell
	for _, name := range []string{"Gauss", "Em3d", "Barnes"} {
		cells = append(cells,
			Cell{name, Variant{Kind: core.TwoLevel}, FullCluster},
			Cell{name, Variant{Kind: core.OneLevelDiff}, FullCluster})
	}
	rf := NewSuite(true).Run(cells)
	if fails := rf.Failed(); len(fails) > 0 {
		t.Fatal(fails)
	}
	for i := 0; i < len(rf.Cells); i += 2 {
		two, one := rf.Cells[i], rf.Cells[i+1]
		if two.DataBytes >= one.DataBytes {
			t.Errorf("%s: 2L data (%d) not below 1LD (%d)", two.App, two.DataBytes, one.DataBytes)
		}
		if two.count(stats.PageTransfers) >= one.count(stats.PageTransfers) {
			t.Errorf("%s: 2L transfers (%d) not below 1LD (%d)", two.App,
				two.count(stats.PageTransfers), one.count(stats.PageTransfers))
		}
	}
}

func TestKcount(t *testing.T) {
	if kcount(345) != "345" {
		t.Errorf("kcount(345) = %q", kcount(345))
	}
	if kcount(12345) != "12.35K" {
		t.Errorf("kcount(12345) = %q", kcount(12345))
	}
}
