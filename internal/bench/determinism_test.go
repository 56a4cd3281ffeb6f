package bench

import (
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/stats"
)

// TestVirtualTimeDeterminism asserts the simulator's core invariant:
// virtual-time results are a function of the program and the cost
// model, not of host scheduling. Each application is run twice on the
// full cluster and the complete per-category execution-time breakdown,
// event counts, and per-processor finish times must match bit for bit.
// The executor runs one processor at a time in a fixed order, so this
// holds for every application, the lock-based ones included, at any
// GOMAXPROCS and under the race detector.
//
// This is also the invariant that lets the access fast path (software
// TLB + range kernels) be validated: the fast path must not change any
// virtual-time accounting, so a before/after comparison of these same
// quantities must be identical.
func TestVirtualTimeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick-suite sweeps")
	}
	for _, app := range apps.Small() {
		t.Run(app.Name(), func(t *testing.T) {
			cfg := core.Config{
				Nodes:        FullCluster.Nodes,
				ProcsPerNode: FullCluster.ProcsPerNode,
				Protocol:     core.TwoLevel,
			}
			a, err := apps.Run(freshApp(t, app.Name()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := apps.Run(freshApp(t, app.Name()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, a, b)
		})
	}
}

// freshApp returns a new small instance of the named application (app
// instances cache layout state, so each run gets its own).
func freshApp(t *testing.T, name string) apps.App {
	t.Helper()
	for _, a := range apps.Small() {
		if a.Name() == name {
			return a
		}
	}
	t.Fatalf("unknown app %q", name)
	return nil
}

func compareResults(t *testing.T, a, b core.Result) {
	t.Helper()
	if a.ExecNS != b.ExecNS {
		t.Errorf("ExecNS differs between runs: %d vs %d", a.ExecNS, b.ExecNS)
	}
	if a.DataBytes != b.DataBytes {
		t.Errorf("DataBytes differs: %d vs %d", a.DataBytes, b.DataBytes)
	}
	for c := stats.Component(0); int(c) < stats.NumComponents; c++ {
		if a.Time[c] != b.Time[c] {
			t.Errorf("time[%v] differs: %d vs %d", c, a.Time[c], b.Time[c])
		}
	}
	for c := stats.Counter(0); int(c) < stats.NumCounters; c++ {
		if a.Counts[c] != b.Counts[c] {
			t.Errorf("count[%v] differs: %d vs %d", c, a.Counts[c], b.Counts[c])
		}
	}
	if len(a.Finish) != len(b.Finish) {
		t.Fatalf("finish lengths differ: %d vs %d", len(a.Finish), len(b.Finish))
	}
	for i := range a.Finish {
		if a.Finish[i] != b.Finish[i] {
			t.Errorf("proc %d finish time differs: %d vs %d", i, a.Finish[i], b.Finish[i])
		}
	}
}
