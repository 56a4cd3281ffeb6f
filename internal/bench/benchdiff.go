package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
)

// Benchmark regression diffing: cell-by-cell comparison of two -json
// results files (see jsonout.go for the schema). exec_ns, data_bytes and
// the counters are virtual-time quantities — functions of the program,
// the cost model and the executor's fixed order, not of the host — so a
// committed results file is golden: any difference in any metric is
// reported. cashmere-benchdiff wraps this in a command, and CI runs it
// against BENCH_quick_baseline.json to gate every change to virtual
// time.

// DiffOptions configures a results comparison.
type DiffOptions struct {
	// CellPattern, when non-empty, restricts the comparison to cells
	// whose "app/variant/topology" label matches this regular
	// expression.
	CellPattern string
}

// DiffEntry is one reported difference.
type DiffEntry struct {
	Cell   string  // app/variant/topology label
	Metric string  // "exec_ns", "data_bytes", or a counter name
	Old    int64   // baseline value
	New    int64   // current value
	Delta  float64 // relative change, (new-old)/old
}

// DiffReport is the outcome of comparing two results files.
type DiffReport struct {
	// Regressions are the metrics that differ. Any entry here makes
	// OK() false.
	Regressions []DiffEntry

	// MissingCells are baseline cells absent from the current file;
	// NewCells the reverse. Missing cells are regressions (coverage
	// loss); new cells are informational.
	MissingCells []string
	NewCells     []string

	// ErrorCells are cells that failed in the current file but
	// succeeded in the baseline.
	ErrorCells []string

	// Compared is the number of cell pairs actually compared.
	Compared int
}

// OK reports whether the comparison passed: no metric differs, no
// lost cells, no newly-failing cells.
func (r *DiffReport) OK() bool {
	return len(r.Regressions) == 0 && len(r.MissingCells) == 0 && len(r.ErrorCells) == 0
}

// LoadResults reads a -json results file.
func LoadResults(path string) (*ResultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchdiff: parsing %s: %w", path, err)
	}
	return &f, nil
}

// cellLabel renders a CellResult's identity label.
func cellLabel(c CellResult) string {
	return fmt.Sprintf("%s/%s/%s", c.App, c.Variant, c.Topology)
}

// DiffResults compares current against baseline cell by cell.
func DiffResults(baseline, current *ResultsFile, opts DiffOptions) (*DiffReport, error) {
	var pat *regexp.Regexp
	if opts.CellPattern != "" {
		var err error
		pat, err = regexp.Compile(opts.CellPattern)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad cell pattern: %w", err)
		}
	}
	match := func(label string) bool { return pat == nil || pat.MatchString(label) }

	cur := make(map[string]CellResult)
	for _, c := range current.Cells {
		cur[cellLabel(c)] = c
	}
	base := make(map[string]CellResult, len(baseline.Cells))
	for _, c := range baseline.Cells {
		base[cellLabel(c)] = c
	}

	rep := &DiffReport{}
	for _, c := range current.Cells {
		label := cellLabel(c)
		if _, ok := base[label]; !ok && match(label) {
			rep.NewCells = append(rep.NewCells, label)
		}
	}
	sort.Strings(rep.NewCells)

	labels := make([]string, 0, len(base))
	for label := range base {
		labels = append(labels, label)
	}
	sort.Strings(labels)

	for _, label := range labels {
		if !match(label) {
			continue
		}
		b := base[label]
		c, ok := cur[label]
		if !ok {
			rep.MissingCells = append(rep.MissingCells, label)
			continue
		}
		if b.Error != "" {
			continue // baseline itself failed: nothing to gate against
		}
		if c.Error != "" {
			rep.ErrorCells = append(rep.ErrorCells, fmt.Sprintf("%s: %s", label, c.Error))
			continue
		}
		rep.Compared++

		check := func(metric string, old, new int64) {
			if new == old {
				return
			}
			// A zero baseline makes the relative change undefined (the
			// naive new/old-1 divides by zero): record a metric
			// appearing from nothing as an infinite delta, which
			// WriteText renders specially.
			rel := math.Inf(1)
			if old != 0 {
				rel = float64(new-old) / float64(old)
			}
			rep.Regressions = append(rep.Regressions, DiffEntry{
				Cell: label, Metric: metric, Old: old, New: new, Delta: rel,
			})
		}

		check("exec_ns", b.ExecNS, c.ExecNS)
		check("data_bytes", b.DataBytes, c.DataBytes)

		names := make(map[string]bool)
		for n := range b.Counts {
			names[n] = true
		}
		for n := range c.Counts {
			names[n] = true
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			check(n, b.Counts[n], c.Counts[n])
		}
	}
	return rep, nil
}

// WriteText renders the report as a readable table: regressions first
// (worst relative change at the top), then coverage changes.
func (r *DiffReport) WriteText(w io.Writer) {
	if r.OK() {
		fmt.Fprintf(w, "benchdiff: OK — %d cells compared, all identical\n", r.Compared)
		if len(r.NewCells) > 0 {
			fmt.Fprintf(w, "%d new cells not in baseline (informational)\n", len(r.NewCells))
		}
		return
	}

	if len(r.Regressions) > 0 {
		regs := append([]DiffEntry(nil), r.Regressions...)
		sort.Slice(regs, func(i, j int) bool {
			if a, b := math.Abs(regs[i].Delta), math.Abs(regs[j].Delta); a != b {
				return a > b
			}
			if regs[i].Cell != regs[j].Cell {
				return regs[i].Cell < regs[j].Cell
			}
			return regs[i].Metric < regs[j].Metric
		})
		fmt.Fprintf(w, "benchdiff: %d metric(s) differ across %d compared cells\n\n", len(regs), r.Compared)
		fmt.Fprintf(w, "%-24s %-18s %14s %14s %8s\n", "cell", "metric", "baseline", "current", "delta")
		for _, e := range regs {
			delta := fmt.Sprintf("%+7.1f%%", 100*e.Delta)
			if math.IsInf(e.Delta, 0) {
				delta = " from 0" // zero baseline: no finite relative change
			}
			fmt.Fprintf(w, "%-24s %-18s %14d %14d %s\n", e.Cell, e.Metric, e.Old, e.New, delta)
		}
	}
	for _, m := range r.MissingCells {
		fmt.Fprintf(w, "missing from current results: %s\n", m)
	}
	for _, e := range r.ErrorCells {
		fmt.Fprintf(w, "newly failing: %s\n", e)
	}
}
