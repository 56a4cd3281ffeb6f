package bench

import (
	"io"

	"cashmere/internal/core"
	"cashmere/internal/stats"
	"cashmere/internal/topology"
)

// shootdownVariants are the columns of the Section 3.3.4 ablation.
var shootdownVariants = []Variant{
	{Kind: core.TwoLevel},
	{Kind: core.TwoLevelSD},
	{Kind: core.TwoLevelSD, Interrupts: true},
}

// Shootdown regenerates Section 3.3.4: TLB shootdown versus two-way
// diffing. It compares 2L against 2LS with polling-based shootdown and
// 2LS with interrupt-based shootdown, at the full configuration. The
// paper finds 2LS(poll) matches 2L, while interrupt-based shootdown
// costs Water about 6%.
var Shootdown = Section{
	Variants: shootdownVariants,
	Topos:    []topology.Spec{FullCluster},
	Render: func(w io.Writer, rf *ResultsFile) error {
		line(w, "Section 3.3.4: two-way diffing vs shootdown at %s", FullCluster)
		line(w, "%-8s %12s %12s %12s %14s", "App", "2L (s)", "2LS poll (s)", "2LS intr (s)", "intr/2L")
		for _, name := range AppNames() {
			var secs [3]float64
			var shoot [3]int64
			failed := false
			for i, v := range shootdownVariants {
				c := rf.row(name, v, FullCluster)
				failed = failed || c.Error != ""
				secs[i] = c.secs()
				shoot[i] = c.count(stats.Shootdowns)
			}
			if failed {
				line(w, "%-8s %12s", name, "FAIL")
				continue
			}
			line(w, "%-8s %12.3f %12.3f %12.3f %13.1f%%  (shootdowns: %d)",
				name, secs[0], secs[1], secs[2], 100*(secs[2]/secs[0]-1), shoot[2])
		}
		return nil
	},
}

// LockFree regenerates Section 3.3.5: the impact of the lock-free
// protocol structures. 2L is compared against a variant whose global
// directory entries and write-notice lists sit behind global locks. The
// paper reports improvements of about 5% for Barnes and Em3d and 7% for
// Ilink from going lock-free.
var LockFree = Section{
	Variants: []Variant{{Kind: core.TwoLevel}, {Kind: core.TwoLevel, LockBased: true}},
	Topos:    []topology.Spec{FullCluster},
	Render: func(w io.Writer, rf *ResultsFile) error {
		line(w, "Section 3.3.5: lock-free vs lock-based protocol structures at %s", FullCluster)
		line(w, "%-8s %14s %14s %12s %12s", "App", "lock-free (s)", "lock-based (s)", "improvement", "dir updates")
		for _, name := range AppNames() {
			free := rf.row(name, Variant{Kind: core.TwoLevel}, FullCluster)
			lk := rf.row(name, Variant{Kind: core.TwoLevel, LockBased: true}, FullCluster)
			if free.Error != "" || lk.Error != "" {
				line(w, "%-8s %14s", name, "FAIL")
				continue
			}
			imp := 100 * (lk.secs()/free.secs() - 1)
			line(w, "%-8s %14.3f %14.3f %11.1f%% %12d",
				name, free.secs(), lk.secs(), imp, free.count(stats.DirectoryUpdates))
		}
		return nil
	},
}
