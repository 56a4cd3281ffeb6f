// Package bench regenerates the evaluation of the paper: Table 1 (basic
// operation costs), Table 2 (data set sizes and sequential times),
// Table 3 (detailed per-application protocol statistics at 32
// processors), Figure 6 (normalized execution-time breakdown), Figure 7
// (speedups across protocols and cluster configurations), and the
// Section 3.3.4/3.3.5 ablations (shootdown vs two-way diffing, lock-free
// vs lock-based metadata).
//
// The evaluation is one table of cells (application x protocol variant
// x topology). Each Section names the cells it reads and renders itself
// from the results table; Plan collects the distinct cells of the
// selected sections, Suite.Run executes each of them once, and every
// renderer, the -json file, /status and the progress line read the
// ResultsFile it returns.
//
// Absolute numbers depend on the simulated platform; what the harness is
// expected to reproduce is the paper's shape: which protocol wins, by
// roughly what factor, and where the crossovers fall. EXPERIMENTS.md
// records paper-vs-measured for every experiment.
package bench

import (
	"fmt"
	"io"
	"strings"

	"cashmere/internal/apps"
	"cashmere/internal/cli"
	"cashmere/internal/core"
	"cashmere/internal/topology"
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

// Figure7Topologies are the configurations of Figure 7.
var Figure7Topologies = []topology.Spec{
	topology.New(4, 1), topology.New(1, 4), topology.New(8, 1),
	topology.New(4, 2), topology.New(2, 4), topology.New(8, 2),
	topology.New(4, 4), topology.New(8, 3), topology.New(8, 4),
}

// FullCluster is the paper's full platform: eight 4-processor nodes.
var FullCluster = topology.New(8, 4)

// Cell is one experiment: an application under a protocol variant at a
// topology.
type Cell struct {
	App  string
	V    Variant
	Topo topology.Spec
}

// String renders the cell as app/variant/topology, e.g. "SOR/2L/32:4".
func (c Cell) String() string { return c.App + "/" + c.V.Label() + "/" + c.Topo.String() }

// A Section is one table or figure of the evaluation: the cells it reads
// — every suite application under each of Variants at each of Topos —
// and the renderer that writes it from the results table.
type Section struct {
	Variants []Variant
	Topos    []topology.Spec
	Render   func(w io.Writer, rf *ResultsFile) error
}

// Plan returns the distinct cells the sections read, in the order they
// name them: section by section, each application (Table 2 order) under
// each variant at each topology. Suite.Run starts them in that order;
// every cell's results are a function of its configuration alone.
func Plan(secs ...Section) []Cell {
	seen := make(map[Cell]bool)
	var cells []Cell
	for _, sec := range secs {
		for _, name := range AppNames() {
			for _, v := range sec.Variants {
				for _, topo := range sec.Topos {
					c := Cell{name, v, topo}
					if !seen[c] {
						seen[c] = true
						cells = append(cells, c)
					}
				}
			}
		}
	}
	return cells
}

// Sections returns the sections cashmere-bench's options select, in
// rendering order. -all is every section but the adaptive ablation and
// the scaling sweep, which only -ablation adaptive and -scaling select.
func Sections(o cli.BenchOptions) ([]Section, error) {
	var secs []Section
	for _, s := range []struct {
		on  bool
		sec Section
	}{
		{o.All || o.Table == "costs", Costs},
		{o.All || o.Table == "1", Table1},
		{o.All || o.Table == "2", Table2},
		{o.All || o.Table == "3", Table3},
		{o.All || o.Figure == "6", Figure6},
		{o.All || o.Figure == "7", Figure7},
		{o.All || o.Ablation == "shootdown", Shootdown},
		{o.All || o.Ablation == "lockfree", LockFree},
		{o.Ablation == "adaptive", Adaptive(o.Quick)},
	} {
		if s.on {
			secs = append(secs, s.sec)
		}
	}
	if o.Scaling != "" {
		top, err := topology.Parse(o.Scaling)
		if err != nil {
			return nil, fmt.Errorf("-scaling: %w", err)
		}
		secs = append(secs, Scaling(top))
	}
	return secs, nil
}

// ParseCell parses an experiment-cell label of the form
// "app/variant/topology" (e.g. "SOR/2L/32:4"), validating the topology
// portion against the shared grammar, and checks that the plan runs the
// cell. It returns the canonical rendering, as Cell.String writes it.
func ParseCell(cell string, plan []Cell) (string, error) {
	parts := strings.Split(cell, "/")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
		return "", fmt.Errorf(`bench: cell %q is not "app/variant/topology" (topology is %s)`,
			cell, topology.Grammar)
	}
	topo, err := topology.Parse(parts[2])
	if err != nil {
		return "", fmt.Errorf("bench: cell %q: %w", cell, err)
	}
	label := parts[0] + "/" + parts[1] + "/" + topo.String()
	for _, c := range plan {
		if c.String() == label {
			return label, nil
		}
	}
	return "", fmt.Errorf("bench: cell %s is not run by the selected sections", label)
}

// suiteApps returns fresh instances of the suite at the given problem
// size, in Table 2 order.
func suiteApps(quick bool) []apps.App {
	if quick {
		return apps.Small()
	}
	return apps.All()
}

// AppNames returns the suite's application names in Table 2 order.
func AppNames() []string {
	var names []string
	for _, a := range apps.Small() {
		names = append(names, a.Name())
	}
	return names
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

// pad right-pads s to width.
func pad(s string, width int) string {
	for len(s) < width {
		s += " "
	}
	return s
}
