package bench

import (
	"io"

	"cashmere/internal/core"
	"cashmere/internal/stats"
	"cashmere/internal/topology"
)

// ScalingVariants are the protocol columns of the scaling sweep: the
// two-level protocol and the one-level diff protocol, whose per-proc
// protocol nodes exercise the wide directory layout past 62 processors.
var ScalingVariants = []Variant{
	{Kind: core.TwoLevel},
	{Kind: core.OneLevelDiff},
}

// ScalingSeries returns the node counts of a scaling sweep: doubling
// from 1 up to and including maxNodes (with maxNodes itself always the
// last point).
func ScalingSeries(maxNodes int) []int {
	var series []int
	for n := 1; n < maxNodes; n *= 2 {
		series = append(series, n)
	}
	return append(series, maxNodes)
}

// messages returns the protocol message count the scaling sweep tracks:
// page transfers, write notices, directory updates, and lock/flag
// acquires (each acquire is a request/grant message exchange). Under
// the two-level protocol this total grows monotonically with the node
// count for every application.
func messages(c CellResult) int64 {
	return c.count(stats.PageTransfers) +
		c.count(stats.WriteNotices) +
		c.count(stats.DirectoryUpdates) +
		c.count(stats.LockAcquires)
}

// Scaling is the scale-out sweep: speedup and protocol message counts
// per application and protocol as the node count doubles from 1 to
// top.Nodes at top.ProcsPerNode processors per node. Configurations past
// the paper's 8x4 run with wide directory words and barrier costs
// extrapolated along the measured slope, so the absolute numbers beyond
// 32 processors are a model extrapolation, not a platform measurement.
func Scaling(top topology.Spec) Section {
	var topos []topology.Spec
	for _, n := range ScalingSeries(top.Nodes) {
		topos = append(topos, topology.New(n, top.ProcsPerNode))
	}
	return Section{
		Variants: ScalingVariants,
		Topos:    topos,
		Render: func(w io.Writer, rf *ResultsFile) error {
			line(w, "Scaling sweep: 1-%d nodes at %d procs/node (speedup | messages: transfers+notices+dir updates+acquires)",
				top.Nodes, top.ProcsPerNode)
			for _, name := range AppNames() {
				line(w, "")
				line(w, "--- %s ---", name)
				header := pad("config", 8)
				for _, v := range ScalingVariants {
					header += pad(v.Label()+" sp", 10) + pad(v.Label()+" msgs", 12)
				}
				line(w, "%s", header)
				for _, topo := range topos {
					out := pad(topo.String(), 8)
					for _, v := range ScalingVariants {
						c := rf.row(name, v, topo)
						if c.Error != "" {
							out += pad("FAIL", 10) + pad("-", 12)
							continue
						}
						out += pad(fmtSp(c), 10) + pad(kcount(messages(c)), 12)
					}
					line(w, "%s", out)
				}
			}
			return nil
		},
	}
}
