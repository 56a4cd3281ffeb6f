package bench

import (
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/topology"
	"cashmere/internal/trace"
)

// TestTracingPreservesVirtualTime is the off-path guarantee of the
// observability layer: attaching a tracer must not change any
// virtual-time accounting, so a traced run and an untraced run of a
// deterministic application produce bit-identical stat vectors.
func TestTracingPreservesVirtualTime(t *testing.T) {
	cfg := core.Config{
		Nodes:        FullCluster.Nodes,
		ProcsPerNode: FullCluster.ProcsPerNode,
		Protocol:     core.TwoLevel,
	}
	plain, err := apps.Run(freshApp(t, "SOR"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{
		Procs: cfg.Nodes * cfg.ProcsPerNode,
		Links: cfg.Nodes,
	})
	cfg.Trace = tr
	traced, err := apps.Run(freshApp(t, "SOR"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, plain, traced)

	sum := tr.Summary()
	if sum.Events["barrier"] == 0 || sum.Events["page-fetch"] == 0 {
		t.Errorf("traced run recorded no protocol events: %v", sum.Events)
	}
}

// TestSuiteSetTrace checks the bench plumbing: the selected cell (and
// only that cell) runs under a tracer, the tracer is retrievable, and
// the trace summary lands on that cell's row of the results table.
func TestSuiteSetTrace(t *testing.T) {
	s := NewSuite(true)
	s.SetTrace("SOR/2L/8:2")

	v := Variant{Kind: core.TwoLevel}
	rf := s.Run([]Cell{{"LU", v, topology.New(4, 2)}, {"SOR", v, topology.New(4, 2)}})
	if fails := rf.Failed(); len(fails) > 0 {
		t.Fatal(fails)
	}
	tr := s.TraceResult()
	if tr == nil {
		t.Fatal("TraceResult nil after the selected cell ran")
	}
	if tr.Summary().Events["barrier"] == 0 {
		t.Error("selected cell's tracer recorded no barriers")
	}

	var traced, untraced int
	for _, c := range rf.Cells {
		if c.Trace != nil {
			traced++
			if cellLabel(c) != "SOR/2L/8:2" {
				t.Errorf("trace summary attached to %s", cellLabel(c))
			}
		} else {
			untraced++
		}
	}
	if traced != 1 || untraced != 1 {
		t.Errorf("traced/untraced cells = %d/%d, want 1/1", traced, untraced)
	}
}
