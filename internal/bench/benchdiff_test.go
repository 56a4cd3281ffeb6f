package bench

import (
	"math"
	"strings"
	"testing"
)

// diffFixture returns a small baseline results file.
func diffFixture() *ResultsFile {
	return &ResultsFile{
		Tool: "cashmere-bench", Schema: 1, Quick: true, Workers: 4,
		Cells: []CellResult{
			{
				App: "SOR", Variant: "2L", Topology: "32:4",
				Procs: 32, ExecNS: 1_000_000, DataBytes: 500_000,
				Counts: map[string]int64{"Barriers": 100, "ReadFaults": 2000},
			},
			{
				App: "LU", Variant: "2L", Topology: "32:4",
				Procs: 32, ExecNS: 2_000_000, DataBytes: 800_000,
				Counts: map[string]int64{"Barriers": 50, "Shootdowns": 3},
			},
			{
				App: "TSP", Variant: "1L", Topology: "8:1",
				Procs: 8, ExecNS: 3_000_000, DataBytes: 100_000,
				Counts: map[string]int64{"LockAcquires": 400},
			},
		},
	}
}

// copyResults deep-copies a fixture so tests can perturb it.
func copyResults(f *ResultsFile) *ResultsFile {
	out := *f
	out.Cells = append([]CellResult(nil), f.Cells...)
	for i, c := range out.Cells {
		m := make(map[string]int64, len(c.Counts))
		for k, v := range c.Counts {
			m[k] = v
		}
		out.Cells[i].Counts = m
	}
	return &out
}

func TestDiffIdenticalFilesPass(t *testing.T) {
	base := diffFixture()
	rep, err := DiffResults(base, copyResults(base), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("identical files must pass: %+v", rep)
	}
	if rep.Compared != 3 {
		t.Errorf("compared %d cells, want 3", rep.Compared)
	}
	var b strings.Builder
	rep.WriteText(&b)
	if !strings.Contains(b.String(), "OK") {
		t.Errorf("report should say OK:\n%s", b.String())
	}
}

// TestDiffSeededRegressionFails: a seeded 10% exec_ns regression fails
// the gate, and the report names the cell, metric and change.
func TestDiffSeededRegressionFails(t *testing.T) {
	base := diffFixture()
	cur := copyResults(base)
	cur.Cells[0].ExecNS = base.Cells[0].ExecNS * 110 / 100 // +10%

	rep, err := DiffResults(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("10% exec_ns regression passed the gate")
	}
	if len(rep.Regressions) != 1 {
		t.Fatalf("regressions: %+v", rep.Regressions)
	}
	e := rep.Regressions[0]
	if e.Cell != "SOR/2L/32:4" || e.Metric != "exec_ns" || e.Delta < 0.09 || e.Delta > 0.11 {
		t.Errorf("entry: %+v", e)
	}
	var b strings.Builder
	rep.WriteText(&b)
	for _, want := range []string{"SOR/2L/32:4", "exec_ns", "+10.0%"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report missing %q:\n%s", want, b.String())
		}
	}
}

func TestDiffImprovementAlsoFlagged(t *testing.T) {
	// An improvement differs too: the baseline is stale and should be
	// regenerated, so the gate flags it symmetrically.
	base := diffFixture()
	cur := copyResults(base)
	cur.Cells[1].ExecNS = base.Cells[1].ExecNS / 2

	rep, err := DiffResults(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("50% improvement should still be reported")
	}
	if rep.Regressions[0].Delta >= 0 {
		t.Errorf("delta should be negative: %+v", rep.Regressions[0])
	}
}

// TestDiffTolerances: there are none. Virtual time is a pure function
// of the configuration, so a one-unit move in any metric — exec_ns,
// data_bytes or a counter — is reported.
func TestDiffTolerances(t *testing.T) {
	base := diffFixture()
	cur := copyResults(base)
	cur.Cells[0].ExecNS++
	cur.Cells[1].DataBytes--
	cur.Cells[2].Counts["LockAcquires"]++
	rep, err := DiffResults(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range rep.Regressions {
		got[e.Cell+" "+e.Metric] = true
	}
	for _, want := range []string{"SOR/2L/32:4 exec_ns", "LU/2L/32:4 data_bytes", "TSP/1L/8:1 LockAcquires"} {
		if !got[want] {
			t.Errorf("one-unit move of %s not reported: %+v", want, rep.Regressions)
		}
	}
	if len(rep.Regressions) != 3 {
		t.Errorf("got %d differences, want 3: %+v", len(rep.Regressions), rep.Regressions)
	}
}

func TestDiffCoverageChanges(t *testing.T) {
	base := diffFixture()
	cur := copyResults(base)
	cur.Cells = cur.Cells[:2] // TSP cell lost
	cur.Cells = append(cur.Cells, CellResult{App: "Water", Variant: "2L", Topology: "32:4", ExecNS: 1})

	rep, err := DiffResults(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("missing baseline cell must fail the gate")
	}
	if len(rep.MissingCells) != 1 || rep.MissingCells[0] != "TSP/1L/8:1" {
		t.Errorf("missing: %v", rep.MissingCells)
	}
	if len(rep.NewCells) != 1 || rep.NewCells[0] != "Water/2L/32:4" {
		t.Errorf("new: %v", rep.NewCells)
	}
}

func TestDiffNewlyFailingCell(t *testing.T) {
	base := diffFixture()
	cur := copyResults(base)
	cur.Cells[2] = CellResult{App: "TSP", Variant: "1L", Topology: "8:1", Error: "panicked"}

	rep, err := DiffResults(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("newly failing cell must fail the gate")
	}
	if len(rep.ErrorCells) != 1 || !strings.Contains(rep.ErrorCells[0], "TSP/1L/8:1") {
		t.Errorf("error cells: %v", rep.ErrorCells)
	}
}

func TestDiffCellPattern(t *testing.T) {
	base := diffFixture()
	cur := copyResults(base)
	cur.Cells[2].ExecNS *= 2 // TSP regresses badly

	rep, err := DiffResults(base, cur, DiffOptions{CellPattern: `^(SOR|LU)/`})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("TSP excluded by pattern, got %+v", rep.Regressions)
	}
	if rep.Compared != 2 {
		t.Errorf("compared %d, want 2", rep.Compared)
	}

	if _, err := DiffResults(base, cur, DiffOptions{CellPattern: `[`}); err == nil {
		t.Error("bad pattern should error")
	}
}

func TestDiffZeroBaselineCell(t *testing.T) {
	// A zero baseline makes the relative change undefined; the naive
	// (new-old)/old would divide by zero. Equal zeros must pass, and a
	// value appearing from zero must fail with a well-defined infinite
	// delta (rendered "from 0", not Inf-percent garbage).
	base := diffFixture()
	base.Cells[0].ExecNS = 0
	base.Cells[0].DataBytes = 0
	base.Cells[0].Counts["ReadFaults"] = 0
	cur := copyResults(base)

	rep, err := DiffResults(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("identical zero cells must pass: %+v", rep.Regressions)
	}

	cur.Cells[0].ExecNS = 700
	rep, err = DiffResults(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("exec_ns appearing from a zero baseline must fail the gate")
	}
	if len(rep.Regressions) != 1 {
		t.Fatalf("regressions: %+v", rep.Regressions)
	}
	if e := rep.Regressions[0]; e.Metric != "exec_ns" || !math.IsInf(e.Delta, 1) {
		t.Errorf("entry: %+v, want exec_ns with +Inf delta", e)
	}
	var b strings.Builder
	rep.WriteText(&b)
	if !strings.Contains(b.String(), "from 0") {
		t.Errorf("report does not mark the zero baseline:\n%s", b.String())
	}
	if strings.Contains(b.String(), "Inf") {
		t.Errorf("report renders a raw infinity:\n%s", b.String())
	}
}

func TestDiffBaselineErrorCellIgnored(t *testing.T) {
	base := diffFixture()
	base.Cells[2].Error = "timed out"
	base.Cells[2].ExecNS = 0
	cur := copyResults(diffFixture())

	rep, err := DiffResults(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("failed baseline cell must not gate: %+v", rep)
	}
	if rep.Compared != 2 {
		t.Errorf("compared %d, want 2", rep.Compared)
	}
}
