package main

import (
	"fmt"
	"math/rand"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/stats"
)

// The Figure 7 head-to-head: every application under Cashmere-2L and
// Cashmere-1LD on the paper's 32 processors, 4 per node.
const (
	simNodes = 8
	simPPN   = 4
)

var simProtocols = []core.Kind{core.TwoLevel, core.OneLevelDiff}

type simCell struct {
	app  apps.App
	kind core.Kind
}

func (c simCell) label() string { return c.app.Name() + "." + c.kind.String() }

// simWorkload is sim_fig7_32x4. A repetition is one pass over the 16
// cells, each built with core.New directly: bench.Suite memoises cells,
// so a second pass through it would measure a map lookup. Application
// instances are kept across passes, which keeps their sequential
// reference (70 % of LU's apps.Run) out of every pass but the warm-up.
type simWorkload struct {
	cells []simCell
}

func newSimWorkload(suite []apps.App, seed int64) *simWorkload {
	w := &simWorkload{}
	for _, app := range suite {
		for _, kind := range simProtocols {
			w.cells = append(w.cells, simCell{app, kind})
		}
	}
	if seed != 0 {
		rand.New(rand.NewSource(seed)).Shuffle(len(w.cells), func(i, j int) {
			w.cells[i], w.cells[j] = w.cells[j], w.cells[i]
		})
	}
	return w
}

func (w *simWorkload) rep(traced bool) (repResult, error) {
	var res repResult
	var total stats.Total
	var newNS time.Duration
	var calls, words int64
	if traced {
		res.layers = make(map[string]float64)
	}
	probe := &meter{}
	for _, cell := range w.cells {
		shape := cell.app.Shape()
		cfg := core.Config{
			Nodes:        simNodes,
			ProcsPerNode: simPPN,
			Protocol:     cell.kind,
			SharedWords:  max(shape.SharedWords, 1),
			Locks:        shape.Locks,
			Flags:        shape.Flags,
			PageWords:    apps.PageWords,
		}
		counters := make([]countingProc, simNodes*simPPN)
		body := func(p *core.Proc) { cell.app.Body(p) }
		if traced {
			body = func(p *core.Proc) {
				cp := &counters[p.ID()]
				cp.Proc = p
				cell.app.Body(cp)
			}
		}

		start := probe.read()
		c, err := core.New(cfg)
		if err != nil {
			return res, fmt.Errorf("%s: %w", cell.label(), err)
		}
		newNS += time.Since(probe.epoch) - start.wall
		r := c.Run(body)
		cost := probe.read().sub(start)
		// Verify runs between cells and outside every reading.
		if err := cell.app.Verify(c); err != nil {
			return res, fmt.Errorf("%s: %w", cell.label(), err)
		}

		res.cost = res.cost.add(cost)
		res.virtualMS += float64(r.ExecNS) / 1e6
		res.dataMB += r.DataMB()
		total.Merge(r.Total)
		if traced {
			res.layers["cell."+cell.label()+".run_ms"] = float64(cost.wall) / 1e6
			for i := range counters {
				calls += counters[i].calls
				words += counters[i].words
			}
		}
	}
	if traced {
		simLayers(res.layers, total, res.cost.wall, newNS, calls, words)
	}
	return res, nil
}

// simLayers adds one pass's counts (Table 3), its Figure 6 breakdown in
// virtual time, and the host cost per simulated access.
func simLayers(out map[string]float64, t stats.Total, wall, newNS time.Duration, calls, words int64) {
	for name, c := range map[string]stats.Counter{
		"core.read_faults":      stats.ReadFaults,
		"core.write_faults":     stats.WriteFaults,
		"core.page_transfers":   stats.PageTransfers,
		"core.twins":            stats.TwinCreations,
		"core.page_flushes":     stats.PageFlushes,
		"core.incoming_diffs":   stats.IncomingDiffs,
		"core.excl_transitions": stats.ExclTransitions,
		"core.lock_acquires":    stats.LockAcquires,
		"core.barriers":         stats.Barriers,
		"directory.updates":     stats.DirectoryUpdates,
		"wnotice.notices":       stats.WriteNotices,
	} {
		out[name] = float64(t.Counts[c])
	}
	out["simchan.data_mb"] = t.DataMB()
	for name, c := range map[string]stats.Component{
		"core.vt_user_ms":     stats.User,
		"core.vt_protocol_ms": stats.Protocol,
		"core.vt_commwait_ms": stats.CommWait,
		"core.vt_polling_ms":  stats.Polling,
	} {
		out[name] = float64(t.Time[c]) / 1e6
	}
	out["core.access_calls"] = float64(calls)
	out["core.access_words"] = float64(words)
	out["core.host_ns_per_word"] = ratio(float64(wall), float64(words))
	out["core.new_ms"] = float64(newNS) / 1e6
}
