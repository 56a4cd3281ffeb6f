package bench

import (
	"fmt"
	"io"

	"cashmere/internal/core"
	"cashmere/internal/stats"
	"cashmere/internal/topology"
)

// Figure6 writes the normalized execution-time breakdown at the full
// configuration: User / Protocol / Polling / Comm & Wait / Write
// Doubling per application and protocol, normalized to Cashmere-2L's
// total (paper Figure 6).
var Figure6 = Section{
	Variants: FourProtocols,
	Topos:    []topology.Spec{FullCluster},
	Render: func(w io.Writer, rf *ResultsFile) error {
		line(w, "Figure 6: normalized execution time breakdown at %s (percent of 2L total)",
			FullCluster)
		line(w, "%-8s %-6s %8s %9s %8s %10s %10s %8s", "App", "Proto",
			"User", "Protocol", "Polling", "Comm&Wait", "WriteDbl", "Total")
		for _, name := range AppNames() {
			base := rf.row(name, Variant{Kind: core.TwoLevel}, FullCluster)
			if base.Error != "" {
				line(w, "%-8s %-6s FAIL (2L baseline: %v)", name, "2L", base.Error)
				continue
			}
			baseSum := timeSum(base)
			for _, v := range FourProtocols {
				c := rf.row(name, v, FullCluster)
				if c.Error != "" {
					line(w, "%-8s %-6s FAIL", name, v.Label())
					continue
				}
				pct := func(k stats.Component) float64 {
					return 100 * float64(c.TimeNS[k.String()]) / float64(baseSum)
				}
				total := 100 * float64(timeSum(c)) / float64(baseSum)
				line(w, "%-8s %-6s %8.1f %9.1f %8.1f %10.1f %10.1f %8.1f",
					name, v.Label(), pct(stats.User), pct(stats.Protocol),
					pct(stats.Polling), pct(stats.CommWait), pct(stats.WriteDoubling),
					total)
			}
		}
		return nil
	},
}

func timeSum(c CellResult) int64 {
	var sum int64
	for _, v := range c.TimeNS {
		sum += v
	}
	if sum == 0 {
		sum = 1
	}
	return sum
}

// Figure7Variants are the bar groups of Figure 7: the four protocols
// plus the home-node-optimized one-level protocols (the unshaded
// extensions in the paper's chart).
var Figure7Variants = []Variant{
	{Kind: core.TwoLevel},
	{Kind: core.TwoLevelSD},
	{Kind: core.OneLevelDiff},
	{Kind: core.OneLevelWrite},
	{Kind: core.OneLevelDiff, HomeOpt: true},
	{Kind: core.OneLevelWrite, HomeOpt: true},
}

// Figure7 writes the speedup chart: every application under every
// protocol variant across the nine cluster configurations (paper
// Figure 7).
var Figure7 = Section{
	Variants: Figure7Variants,
	Topos:    Figure7Topologies,
	Render: func(w io.Writer, rf *ResultsFile) error {
		line(w, "Figure 7: speedups (sequential time / parallel virtual time)")
		for _, name := range AppNames() {
			line(w, "")
			line(w, "--- %s ---", name)
			header := pad("config", 8)
			for _, v := range Figure7Variants {
				header += pad(v.Label(), 9)
			}
			line(w, "%s", header)
			maxSp := 0.0
			grid := make([][]CellResult, len(Figure7Topologies))
			for ti, topo := range Figure7Topologies {
				grid[ti] = make([]CellResult, len(Figure7Variants))
				for vi, v := range Figure7Variants {
					c := rf.row(name, v, topo)
					grid[ti][vi] = c
					if c.Error == "" && c.speedup() > maxSp {
						maxSp = c.speedup()
					}
				}
			}
			for ti, topo := range Figure7Topologies {
				out := pad(topo.String(), 8)
				for vi := range Figure7Variants {
					out += pad(fmtSp(grid[ti][vi]), 9)
				}
				line(w, "%s", out)
			}
			// Bar chart of the full configuration.
			line(w, "  at %s:", FullCluster)
			for vi, v := range Figure7Variants {
				c := grid[len(Figure7Topologies)-1][vi]
				if c.Error != "" {
					line(w, "  %-8s   FAIL |", v.Label())
					continue
				}
				line(w, "  %-8s %6.2f |%s", v.Label(), c.speedup(), bar(c.speedup(), maxSp, 40))
			}
		}
		return nil
	},
}

// fmtSp renders a cell's speedup, marking a failed cell.
func fmtSp(c CellResult) string {
	if c.Error != "" {
		return "FAIL"
	}
	return fmt.Sprintf("%.2f", c.speedup())
}
