package modelcheck

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"cashmere/internal/core"
)

var (
	depthFlag     = flag.Int("modelcheck.depth", 0, "override exhaustive exploration depth")
	schedulesFlag = flag.Int("modelcheck.schedules", 0, "override fuzz schedule count")
)

func exploreDepth(t *testing.T, def int) int {
	t.Helper()
	if *depthFlag > 0 {
		return *depthFlag
	}
	if testing.Short() {
		return def - 1
	}
	return def
}

func fuzzSchedules(t *testing.T, def int) int {
	t.Helper()
	if *schedulesFlag > 0 {
		return *schedulesFlag
	}
	if testing.Short() {
		return def / 10
	}
	return def
}

func mustExplore(t *testing.T, opts Options, depth int) Result {
	t.Helper()
	res, err := Explore(opts, depth)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if cx := res.Counterexample; cx != nil {
		data, _ := cx.Encode()
		t.Fatalf("invariant violation (depth %d, %d runs):\n%s", depth, res.Runs, data)
	}
	t.Logf("depth %d: %d runs, %d steps, no violations", depth, res.Runs, res.Steps)
	return res
}

// The exhaustive sweep: every interleaving of the full operation
// alphabet over the 2x2x2 small model up to the depth bound, for every
// protocol variant, the lock-based metadata ablation and first touch.

func TestExploreTwoLevel(t *testing.T) {
	mustExplore(t, Options{Protocol: core.TwoLevel}, exploreDepth(t, 3))
}

func TestExploreTwoLevelSD(t *testing.T) {
	mustExplore(t, Options{Protocol: core.TwoLevelSD}, exploreDepth(t, 3))
}

func TestExploreOneLevelDiff(t *testing.T) {
	mustExplore(t, Options{Protocol: core.OneLevelDiff}, exploreDepth(t, 3))
}

func TestExploreOneLevelWrite(t *testing.T) {
	mustExplore(t, Options{Protocol: core.OneLevelWrite}, exploreDepth(t, 3))
}

func TestExploreLockBasedMeta(t *testing.T) {
	mustExplore(t, Options{Protocol: core.TwoLevel, LockBasedMeta: true}, exploreDepth(t, 3))
}

func TestExploreFirstTouch(t *testing.T) {
	mustExplore(t, Options{Protocol: core.TwoLevel, FirstTouch: true}, exploreDepth(t, 3))
}

// TestExploreDeep pushes the canonical model one level past the
// per-variant sweeps; CI's modelcheck job runs it with
// -modelcheck.depth for the full exhaustive pass.
func TestExploreDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep exploration")
	}
	mustExplore(t, Options{Protocol: core.TwoLevel}, exploreDepth(t, 4))
}

// The fixed-seed fuzz corpus: long random schedules over every
// protocol variant. Seeds are fixed so a failure here is reproducible
// verbatim; the -modelcheck.schedules flag scales the batch for CI's
// long mode. Every case runs 1000 schedules (100 under -short): 40 ops
// each at the default 2x2 shape, and 60 ops each at the wider 4x1, 4x2
// and 2x4 shapes writing four words, where the one-level release-time
// exclusive entry on a stale copy needed ten ops at 4x1. The twelve
// wide cases take about 9 s together on a 2-vCPU host.
func TestFuzzCorpus(t *testing.T) {
	n := fuzzSchedules(t, 1000)
	type fuzzCase struct {
		name string
		opts Options
		ops  int
	}
	cases := []fuzzCase{
		{"2L", Options{Protocol: core.TwoLevel}, 40},
		{"2LS", Options{Protocol: core.TwoLevelSD}, 40},
		{"1LD", Options{Protocol: core.OneLevelDiff}, 40},
		{"1L", Options{Protocol: core.OneLevelWrite}, 40},
		{"2L-words2", Options{Protocol: core.TwoLevel, Words: 2}, 40},
		{"2L-lockmeta", Options{Protocol: core.TwoLevel, LockBasedMeta: true}, 40},
		{"2L-firsttouch", Options{Protocol: core.TwoLevel, FirstTouch: true}, 40},
	}
	for _, shape := range [][2]int{{4, 1}, {4, 2}, {2, 4}} {
		for _, k := range []core.Kind{core.TwoLevel, core.TwoLevelSD, core.OneLevelDiff, core.OneLevelWrite} {
			cases = append(cases, fuzzCase{
				fmt.Sprintf("%s-%dx%d-words4", k, shape[0], shape[1]),
				Options{Nodes: shape[0], ProcsPerNode: shape[1], Words: 4, Protocol: k}, 60})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Fuzz(tc.opts, 1, n, tc.ops)
			if err != nil {
				t.Fatal(err)
			}
			if cx := res.Counterexample; cx != nil {
				data, _ := cx.Encode()
				t.Fatalf("violation (seed %d, %d runs):\n%s", cx.Seed, res.Runs, data)
			}
			t.Logf("%d schedules, %d steps clean", res.Runs, res.Steps)
		})
	}
}

// Counterexample plumbing: encode/decode round trip, rejection of
// empty schedules, minimization, and replay divergence reporting.

func TestCounterexampleRoundTrip(t *testing.T) {
	cx := &Counterexample{
		Options: Options{}.withDefaults(),
		Seed:    42,
		Schedule: []Op{
			{Proc: 1, Kind: OpWrite, Page: 1, Word: 3},
			{Proc: 2, Kind: OpBarrier},
		},
		Violation: Violation{Invariant: "lost-write", Step: 1, Detail: "x"},
	}
	data, err := cx.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != cx.Seed || len(got.Schedule) != len(cx.Schedule) ||
		got.Schedule[0] != cx.Schedule[0] || got.Schedule[1] != cx.Schedule[1] ||
		got.Violation != cx.Violation || got.Options != cx.Options {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got, cx)
	}
	if _, err := Decode([]byte(`{"schedule": []}`)); err == nil {
		t.Fatal("Decode accepted an empty schedule")
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Fatal("Decode accepted garbage")
	}
}

func TestMinimizeShrinksSchedule(t *testing.T) {
	// Pad the keep-exclusive-twin trigger with irrelevant traffic on
	// the other page; minimization must strip it back down.
	opts := Options{Protocol: core.OneLevelDiff, Defect: "keep-exclusive-twin"}
	padded := []Op{
		{Proc: 0, Kind: OpRead, Page: 1},
		{Proc: 3, Kind: OpWrite, Page: 0},
		{Proc: 1, Kind: OpWrite, Page: 1},
		{Proc: 1, Kind: OpRelease},
		{Proc: 3, Kind: OpRelease},
	}
	v, err := RunSchedule(opts, padded)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("padded schedule does not trigger the defect")
	}
	cx := Minimize(&Counterexample{Options: opts, Schedule: padded, Violation: *v})
	if len(cx.Schedule) != 2 {
		t.Fatalf("minimized to %d ops, want 2: %v", len(cx.Schedule), cx.Schedule)
	}
	if got, err := RunSchedule(opts, cx.Schedule); err != nil || got == nil ||
		got.Invariant != v.Invariant {
		t.Fatalf("minimized schedule does not reproduce: v=%v err=%v", got, err)
	}
}

func TestReplayDivergenceReported(t *testing.T) {
	// A clean schedule presented as a counterexample must be reported
	// as a divergence, not silently accepted.
	cx := &Counterexample{
		Options:   Options{}.withDefaults(),
		Schedule:  []Op{{Proc: 0, Kind: OpWrite, Page: 0}},
		Violation: Violation{Invariant: "lost-write", Step: 0, Detail: "fabricated"},
	}
	var out strings.Builder
	got, err := Replay(cx, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("fabricated counterexample reproduced: %v", got)
	}
	if !strings.Contains(out.String(), "DIVERGENCE") {
		t.Errorf("replay output missing DIVERGENCE marker:\n%s", out.String())
	}
	// The events print as page-timeline lines (trace.Recording.Line):
	// the write is a write fault of processor 0 on page 0.
	_, events, _ := strings.Cut(out.String(), "\nprotocol events:\n")
	lines := strings.Split(strings.TrimSuffix(events, "\n"), "\n")
	sawFault := false
	for _, line := range lines {
		if !strings.HasPrefix(line, "vt=") {
			t.Errorf("event line %q is not a timeline line", line)
		}
		sawFault = sawFault || strings.Contains(line, " p0 n0 pg0 write-fault dur=")
	}
	if !sawFault {
		t.Errorf("no write-fault line for p0 on page 0 among the events:\n%s", events)
	}
}

// TestHarnessMatchesBlockingBarrier cross-checks the composite barrier
// against a goroutine cluster: the same single-writer round trip on
// both must leave identical master contents.
func TestHarnessMatchesBlockingBarrier(t *testing.T) {
	opts := Options{}.withDefaults()
	r, err := newRun(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := []Op{
		{Proc: 0, Kind: OpWrite, Page: 0},
		{Proc: 0, Kind: OpBarrier},
		{Proc: 1, Kind: OpBarrier},
		{Proc: 2, Kind: OpBarrier},
		{Proc: 3, Kind: OpBarrier},
		{Proc: 3, Kind: OpRead, Page: 0},
	}
	for i, op := range sched {
		if v := r.apply(op); v != nil {
			t.Fatalf("step %d: %v", i, v)
		}
	}
	if got := r.h.Master(0)[0]; got != 1 {
		t.Fatalf("master word = %d, want the written value 1", got)
	}
}
