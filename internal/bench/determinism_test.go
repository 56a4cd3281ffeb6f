package bench

import (
	"runtime"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/stats"
)

// TestVirtualTimeDeterminism asserts the simulator's core invariant
// for the barrier-phased applications: virtual-time results are a
// function of the program and the cost model, not of host scheduling.
// Each application is run twice on the full cluster and the complete
// per-category execution-time breakdown, event counts, and
// per-processor finish times must match bit for bit.
//
// The lock-based applications (TSP, Water, Ilink, Barnes) are outside
// the invariant: lock grant order is a genuine protocol freedom —
// two runs on the real platform interleave differently too — and the
// downstream fault and fetch sequences legitimately differ with it,
// so they are not tested here.
//
// This is also the invariant that lets the access fast path (software
// TLB + range kernels) be validated: the fast path must not change any
// virtual-time accounting, so a before/after comparison of these same
// quantities must be identical.
//
// Caveat: the simulator breaks genuine virtual-time ties by host
// arrival order (bus reservations, concurrent same-page faults on one
// node, the first-touch race for a superpage's home), so determinism
// holds only under repeatable scheduling, not under adversarial timing
// perturbation. The race detector's instrumentation perturbs timing
// enough to flip those tie-breaks on every app — the unmodified seed
// fails this test under -race too — so the test is skipped there. For
// the same reason the test pins GOMAXPROCS to 1: both runs of an app
// then see the near-deterministic single-threaded schedule, and the
// comparison is stable. Run it via plain `go test ./internal/bench`.
func TestVirtualTimeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick-suite sweeps")
	}
	if raceEnabled {
		t.Skip("virtual-time tie-breaks are host-order dependent; the race detector's timing perturbation flips them (seed behaviour, see comment)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	deterministic := map[string]bool{"SOR": true, "LU": true, "Gauss": true, "Em3d": true}
	for _, app := range apps.Small() {
		app := app
		if !deterministic[app.Name()] {
			continue
		}
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
// instances cache layout state, so each run gets its own) on a collected
// heap. Every run then starts from the same GC state, as each Suite.Run
// cell does, so at GOMAXPROCS=1 its host schedule, and the virtual-time
// tie-breaks that schedule picks, do not depend on the tests before it.
func freshApp(t *testing.T, name string) apps.App {
	t.Helper()
	runtime.GC()
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
