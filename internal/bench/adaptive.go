package bench

import (
	"io"

	"cashmere/internal/core"
	"cashmere/internal/stats"
	"cashmere/internal/topology"
)

// AdaptiveVariant is the adaptive ablation column: the 2L protocol with
// the internal/policy engine re-deciding per-page coherence policy at
// every barrier epoch.
var AdaptiveVariant = Variant{Kind: core.TwoLevel, Adaptive: true}

// Adaptive renders the adaptive-policy ablation: every application
// under the four fixed protocols and under 2L+A (2L with the adaptive
// engine), with the win or loss of adaptive against the best fixed
// column. It runs at 16:4 for quick runs (the CI smoke lane) and at the
// paper's full 32:4 cluster otherwise. docs/ADAPTIVE.md explains how to
// read the table; the committed BENCH_adaptive.json records the quick
// 16:4 cells.
func Adaptive(quick bool) Section {
	topo := FullCluster
	if quick {
		topo = topology.New(4, 4)
	}
	variants := append(append([]Variant(nil), FourProtocols...), AdaptiveVariant)
	return Section{
		Variants: variants,
		Topos:    []topology.Spec{topo},
		Render: func(w io.Writer, rf *ResultsFile) error {
			line(w, "Adaptive per-page policy vs fixed protocols at %s", topo)
			line(w, "%-8s %9s %9s %9s %9s %9s %10s %9s  %s", "App",
				"2L (s)", "2LS (s)", "1LD (s)", "1L (s)", "2L+A (s)", "best", "vs best", "policy actions")
			for _, name := range AppNames() {
				secs := make([]float64, len(variants))
				var adaptive CellResult
				failed := false
				for i, v := range variants {
					c := rf.row(name, v, topo)
					failed = failed || c.Error != ""
					secs[i] = c.secs()
					if v.Adaptive {
						adaptive = c
					}
				}
				if failed {
					line(w, "%-8s %9s", name, "FAIL")
					continue
				}
				best, bestLabel := secs[0], variants[0].Label()
				for i := 1; i < len(FourProtocols); i++ {
					if secs[i] < best {
						best, bestLabel = secs[i], variants[i].Label()
					}
				}
				win := 100 * (1 - secs[len(secs)-1]/best)
				line(w, "%-8s %9.3f %9.3f %9.3f %9.3f %9.3f %10s %8.1f%%  mode=%d upd=%d repl=%d mig=%d",
					name, secs[0], secs[1], secs[2], secs[3], secs[4], bestLabel, win,
					adaptive.count(stats.PolicyModeChanges),
					adaptive.count(stats.PolicyUpdates),
					adaptive.count(stats.PolicyReplications),
					adaptive.count(stats.HomeMigrations))
			}
			return nil
		},
	}
}
