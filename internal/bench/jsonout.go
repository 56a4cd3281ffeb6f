package bench

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"cashmere/internal/metrics"
	"cashmere/internal/stats"
	"cashmere/internal/topology"
	"cashmere/internal/trace"
)

// The results table: Suite.Run returns one ResultsFile holding a row for
// every planned cell, the renderers read it, and -json writes it so
// benchmark trajectories can be diffed across revisions. The file is a
// single JSON document:
//
//	{
//	  "tool": "cashmere-bench",
//	  "schema": 1,
//	  "quick": true,
//	  "workers": 4,
//	  "cells": [
//	    {
//	      "app": "SOR",
//	      "variant": "2L",
//	      "topology": "32:4",
//	      "procs": 32,
//	      "exec_ns": 50123456,
//	      "data_bytes": 744480,
//	      "counts": {"Barriers": 14, "ReadFaults": 59, ...},
//	      "time_ns": {"User": ..., "Protocol": ..., ...},
//	      "seq_ns": 1603000000,
//	      "trace": {...},         // present only for the cell traced
//	                              // with -trace (see docs/TRACING.md)
//	      "profile": {...},       // hot-page/hot-lock attribution for
//	                              // the traced cell (docs/METRICS.md)
//	      "error": "..."          // present only for failed cells
//	    }, ...
//	  ]
//	}
//
// Cells are sorted by (app, variant, topology) regardless of execution
// order, so two runs of the same evaluation diff cleanly. Zero-valued
// counters and components are omitted from the maps. Files written
// before seq_ns existed carry a "wall_ns" (host time per cell), which
// loaders ignore.

// CellResult is one experiment cell in the results file.
type CellResult struct {
	App      string `json:"app"`
	Variant  string `json:"variant"`
	Topology string `json:"topology"`

	// Procs is the number of simulated processors; zero for failed
	// cells.
	Procs int `json:"procs,omitempty"`

	// ExecNS is the virtual execution time (stats.Total.ExecNS).
	ExecNS int64 `json:"exec_ns"`

	// DataBytes is the Memory Channel payload traffic.
	DataBytes int64 `json:"data_bytes"`

	// Counts holds the nonzero protocol event counters by name.
	Counts map[string]int64 `json:"counts,omitempty"`

	// TimeNS holds the nonzero execution-time breakdown components by
	// name, in virtual nanoseconds.
	TimeNS map[string]int64 `json:"time_ns,omitempty"`

	// SeqNS is the application's sequential reference time under the
	// default cost model, the numerator of the cell's speedup.
	SeqNS int64 `json:"seq_ns"`

	// Trace holds the structured-trace summary (event counts and
	// latency/size histograms) for the cell selected with
	// Suite.SetTrace; nil for untraced cells.
	Trace *trace.Summary `json:"trace,omitempty"`

	// Profile holds the hot-page / hot-lock attribution report for the
	// traced cell; nil for untraced cells.
	Profile *metrics.Profile `json:"profile,omitempty"`

	// Error is the failure message of a failed (errored, panicked, or
	// timed-out) cell; empty on success.
	Error string `json:"error,omitempty"`

	// The cell's progress while Suite.Run executes the table, read by
	// /status and the progress line: start is zero while the cell is
	// queued, and wall is its host time once done.
	start time.Time
	wall  time.Duration
	done  bool
}

// count returns one protocol event counter of the cell.
func (c CellResult) count(k stats.Counter) int64 { return c.Counts[k.String()] }

// secs returns the cell's virtual execution time in seconds.
func (c CellResult) secs() float64 { return float64(c.ExecNS) / 1e9 }

// speedup returns sequential time over parallel virtual time.
func (c CellResult) speedup() float64 { return float64(c.SeqNS) / float64(c.ExecNS) }

// ResultsFile is the top-level document of the JSON results output.
type ResultsFile struct {
	Tool    string       `json:"tool"`
	Schema  int          `json:"schema"`
	Quick   bool         `json:"quick"`
	Workers int          `json:"workers"`
	Cells   []CellResult `json:"cells"`
}

// row returns the table's row for app under v at topo. A cell the table
// lacks reads as failed, so a renderer shows FAIL rather than zeros.
func (f *ResultsFile) row(app string, v Variant, topo topology.Spec) CellResult {
	vl, tl := v.Label(), topo.String()
	for _, c := range f.Cells {
		if c.App == app && c.Variant == vl && c.Topology == tl {
			return c
		}
	}
	return CellResult{App: app, Variant: vl, Topology: tl, Error: "not in the results table"}
}

// Failed returns "label: error" for every failed cell, sorted.
func (f *ResultsFile) Failed() []string {
	var out []string
	for _, c := range f.Cells {
		if c.Error != "" {
			out = append(out, cellLabel(c)+": "+c.Error)
		}
	}
	sort.Strings(out)
	return out
}

// WriteTo serializes the table as indented JSON, with cells sorted by
// (app, variant, topology) for stable diffs.
func (f *ResultsFile) WriteTo(w io.Writer) (int64, error) {
	file := *f
	file.Cells = append([]CellResult(nil), f.Cells...)
	sort.Slice(file.Cells, func(i, j int) bool {
		a, b := file.Cells[i], file.Cells[j]
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Variant != b.Variant {
			return a.Variant < b.Variant
		}
		return a.Topology < b.Topology
	})
	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return 0, err
	}
	buf = append(buf, '\n')
	n, err := w.Write(buf)
	return int64(n), err
}
