package bench

import (
	"fmt"
	"io"

	"cashmere/internal/core"
	"cashmere/internal/costs"
)

// Table 1: costs of basic operations for the two-level protocols
// (2L/2LS) and the one-level protocols (1LD/1L), measured by running
// microbenchmark programs on the simulated cluster.

// BasicOps holds one protocol family's measured basic operation costs
// in nanoseconds of virtual time.
type BasicOps struct {
	LockAcquire        int64
	Barrier2           int64
	Barrier32          int64
	PageTransferLocal  int64
	PageTransferRemote int64
}

// MeasureBasicOps runs the microbenchmarks for one protocol family.
func MeasureBasicOps(kind core.Kind) (BasicOps, error) {
	var out BasicOps
	var err error
	if out.LockAcquire, err = measureLock(kind); err != nil {
		return out, err
	}
	if out.Barrier2, err = measureBarrier(kind, 2, 1); err != nil {
		return out, err
	}
	if out.Barrier32, err = measureBarrier(kind, 8, 4); err != nil {
		return out, err
	}
	if out.PageTransferRemote, err = measureTransfer(kind, false); err != nil {
		return out, err
	}
	if kind.TwoLevelFamily() {
		// Two processors of one SMP share the frame in hardware, so a
		// "local transfer" never occurs under the two-level protocols;
		// the platform cost is reported for reference.
		out.PageTransferLocal = costs.Default().PageTransferLocal
	} else {
		if out.PageTransferLocal, err = measureTransfer(kind, true); err != nil {
			return out, err
		}
	}
	return out, nil
}

func microCluster(kind core.Kind, nodes, ppn int) (*core.Cluster, error) {
	return core.New(core.Config{
		Nodes:        nodes,
		ProcsPerNode: ppn,
		Protocol:     kind,
		PageWords:    1024,
		SharedWords:  16 * 1024,
		Locks:        1,
	})
}

// measureLock times an uncontended application lock acquire.
func measureLock(kind core.Kind) (int64, error) {
	c, err := microCluster(kind, 2, 1)
	if err != nil {
		return 0, err
	}
	var cost int64
	c.Run(func(p *core.Proc) {
		if p.ID() != 0 {
			return
		}
		t0 := p.Now()
		p.Lock(0)
		cost = p.Now() - t0
		p.Unlock(0)
	})
	return cost, nil
}

// measureBarrier times one barrier episode with all processors arriving
// together.
func measureBarrier(kind core.Kind, nodes, ppn int) (int64, error) {
	c, err := microCluster(kind, nodes, ppn)
	if err != nil {
		return 0, err
	}
	var cost int64
	c.Run(func(p *core.Proc) {
		p.Barrier() // align clocks
		t0 := p.Now()
		p.Barrier()
		if p.ID() == 0 {
			cost = p.Now() - t0
		}
	})
	return cost, nil
}

// measureTransfer times a page fetch after invalidation, reporting the
// transfer component (total fault time minus the fault and mprotect
// overheads).
func measureTransfer(kind core.Kind, local bool) (int64, error) {
	nodes, ppn := 2, 1
	if local {
		nodes, ppn = 1, 2
	}
	c, err := microCluster(kind, nodes, ppn)
	if err != nil {
		return 0, err
	}
	m := costs.Default()
	var cost int64
	c.Run(func(p *core.Proc) {
		// Both processors map page 0 (homed on protocol node 0), so it
		// never enters exclusive mode.
		p.Load(0)
		p.Barrier()
		if p.ID() == 0 {
			p.Store(0, 42)
		}
		p.Barrier() // departure invalidates proc 1's copy
		if p.ID() == 1 {
			t0 := p.Now()
			p.Load(0)
			cost = p.Now() - t0 - m.PageFault - m.MProtect
		}
		p.Barrier()
	})
	return cost, nil
}

// Table1 regenerates Table 1 from its microbenchmarks; it reads no
// cells.
var Table1 = Section{Render: func(w io.Writer, _ *ResultsFile) error {
	two, err := MeasureBasicOps(core.TwoLevel)
	if err != nil {
		return err
	}
	one, err := MeasureBasicOps(core.OneLevelDiff)
	if err != nil {
		return err
	}
	us := func(ns int64) string { return fmt.Sprintf("%d", (ns+500)/1000) }
	line(w, "Table 1: costs of basic operations (microseconds)")
	line(w, "%-28s %12s %12s", "Operation", "2L/2LS", "1LD/1L")
	line(w, "%-28s %12s %12s", "Lock Acquire", us(two.LockAcquire), us(one.LockAcquire))
	line(w, "%-28s %7s (%s) %7s (%s)", "Barrier (2 proc / 32 proc)",
		us(two.Barrier2), us(two.Barrier32), us(one.Barrier2), us(one.Barrier32))
	line(w, "%-28s %12s %12s", "Page Transfer (Local)", us(two.PageTransferLocal), us(one.PageTransferLocal))
	line(w, "%-28s %12s %12s", "Page Transfer (Remote)", us(two.PageTransferRemote), us(one.PageTransferRemote))
	return nil
}}

// Costs writes the Section 3.1 microcosts straight from the cost model
// (twinning, diffs, directory updates) alongside the measured ranges;
// it reads no cells.
var Costs = Section{Render: func(w io.Writer, _ *ResultsFile) error {
	m := costs.Default()
	us := func(ns int64) float64 { return float64(ns) / 1000 }
	line(w, "Section 3.1 basic operation costs (microseconds)")
	line(w, "%-38s %8.0f", "Memory protection (mprotect)", us(m.MProtect))
	line(w, "%-38s %8.0f", "Page fault (resident page)", us(m.PageFault))
	line(w, "%-38s %8.0f", "Twin creation (8K page)", us(m.Twin))
	line(w, "%-38s %5.0f - %3.0f", "Outgoing diff (local home)",
		us(m.OutgoingDiffLocalMin), us(m.OutgoingDiffLocalMax))
	line(w, "%-38s %5.0f - %3.0f", "Outgoing diff (remote home)",
		us(m.OutgoingDiffRemoteMin), us(m.OutgoingDiffRemoteMax))
	line(w, "%-38s %5.0f - %3.0f", "Incoming diff",
		us(m.IncomingDiffMin), us(m.IncomingDiffMax))
	line(w, "%-38s %8.0f", "Directory update (lock-free)", us(m.DirectoryUpdate))
	line(w, "%-38s %8.0f", "Directory update (locked)", us(m.DirectoryUpdateLocked))
	line(w, "%-38s %8.0f", "Global lock acquire+release", us(m.GlobalLock))
	line(w, "%-38s %8.0f", "Shootdown per processor (polling)", us(m.ShootdownPoll))
	line(w, "%-38s %8.0f", "Shootdown per processor (interrupt)", us(m.ShootdownInterrupt))
	line(w, "%-38s %8.1f", "MC remote write latency", us(m.MCWriteLatency))
	return nil
}}
