package bench

import (
	"fmt"
	"io"

	"cashmere/internal/costs"
	"cashmere/internal/stats"
	"cashmere/internal/topology"
)

// Table2 writes the data set sizes and sequential execution times of
// the application suite (paper Table 2, at this reproduction's scaled
// problem sizes, as the results file's quick flag selects); it reads no
// cells.
var Table2 = Section{Render: func(w io.Writer, rf *ResultsFile) error {
	line(w, "Table 2: data set sizes and sequential execution time")
	line(w, "%-8s %-48s %12s", "Program", "Problem Size", "Time (sec)")
	m := costs.Default()
	for _, app := range suiteApps(rf.Quick) {
		line(w, "%-8s %-48s %12.3f", app.Name(), app.DataSet(),
			float64(app.SeqTime(m))/1e9)
	}
	return nil
}}

// Table3 writes the detailed per-application statistics under the four
// protocols at the full 32-processor configuration (paper Table 3). A
// failed cell renders as a FAIL column while the rest of the table
// proceeds.
var Table3 = Section{
	Variants: FourProtocols,
	Topos:    []topology.Spec{FullCluster},
	Render: func(w io.Writer, rf *ResultsFile) error {
		line(w, "Table 3: detailed statistics at %d processors (%s)",
			FullCluster.Procs(), FullCluster)
		for _, v := range FourProtocols {
			line(w, "")
			line(w, "--- %s ---", v.Label())
			rows := make([][]string, len(statLabels))
			for i := range rows {
				rows[i] = []string{statLabels[i]}
			}
			header := "Application            "
			for _, name := range AppNames() {
				c := rf.row(name, v, FullCluster)
				header += pad(name, 10)
				for i, cell := range statRow(c) {
					if c.Error != "" {
						cell = "FAIL"
					}
					rows[i] = append(rows[i], cell)
				}
			}
			line(w, "%s", header)
			for _, row := range rows {
				out := pad(row[0], 23)
				for _, cell := range row[1:] {
					out += pad(cell, 10)
				}
				line(w, "%s", out)
			}
		}
		return nil
	},
}

// statRow extracts a Table 3 statistics row.
func statRow(c CellResult) []string {
	return []string{
		fmt.Sprintf("%.3f", c.secs()),
		kcount(c.count(stats.LockAcquires)),
		fmt.Sprintf("%d", c.count(stats.Barriers)),
		kcount(c.count(stats.ReadFaults)),
		kcount(c.count(stats.WriteFaults)),
		kcount(c.count(stats.PageTransfers)),
		kcount(c.count(stats.DirectoryUpdates)),
		kcount(c.count(stats.WriteNotices)),
		kcount(c.count(stats.ExclTransitions)),
		fmt.Sprintf("%.2f", float64(c.DataBytes)/(1<<20)),
		kcount(c.count(stats.TwinCreations)),
		kcount(c.count(stats.IncomingDiffs)),
		kcount(c.count(stats.FlushUpdates)),
		kcount(c.count(stats.Shootdowns)),
	}
}

// statLabels are the Table 3 row labels, matching statRow's order.
var statLabels = []string{
	"Exec. time (secs)",
	"Lock/Flag Acquires",
	"Barriers",
	"Read Faults",
	"Write Faults",
	"Page Transfers",
	"Directory Updates",
	"Write Notices",
	"Excl. Mode Transitions",
	"Data (Mbytes)",
	"Twin Creations",
	"Incoming Diffs",
	"Flush-Updates",
	"Shootdowns",
}
