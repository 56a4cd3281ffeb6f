package modelcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cashmere/internal/core"
)

// The checker checks the checker: every protocol defect this package's
// invariants ever caught can be re-introduced in one model through
// Options.Defect, and these tests prove that with the defect back in,
// the checker still reports a replayable counterexample — and that the
// same schedule runs clean on the fixed protocol. A checker change that
// silently stops detecting one of these bugs fails here.

// defectCase describes one historical defect: the model it shows up in
// (Options.Defect names the defect), a scripted schedule reaching it,
// and the invariant that must fire.
type defectCase struct {
	opts      Options
	schedule  []Op
	invariant string
}

// Procs in the default 2x2 model: p0,p1 on node 0; p2,p3 on node 1.
// Under the one-level protocols every proc is its own protocol node.
var defectCases = []defectCase{
	{
		// A remote and an unreleased local write collide on a word; the
		// historical Incoming applied the remote value unconditionally,
		// destroying the local write.
		opts: Options{Protocol: core.TwoLevel, Defect: "incoming-clobber"},
		schedule: []Op{
			{Proc: 0, Kind: OpWrite, Page: 0}, // home node: master = v1
			{Proc: 2, Kind: OpWrite, Page: 0}, // node 1 twins, v2 pending
			{Proc: 0, Kind: OpWrite, Page: 0}, // master = v3
			{Proc: 0, Kind: OpBarrier},        // flush posts notice to node 1
			{Proc: 2, Kind: OpAcquire},        // drain + invalidate
			{Proc: 2, Kind: OpRead, Page: 0},  // refetch: Incoming hits the overlap
		},
		invariant: "lost-write",
	},
	{
		// A fault maps a copy that predates an already-drained write
		// notice; without the self-notice, the mapping survives the
		// processor's next acquire and keeps serving stale data.
		opts: Options{Protocol: core.TwoLevel, Defect: "drop-stale-map-notice"},
		schedule: []Op{
			{Proc: 3, Kind: OpRead, Page: 0},  // node 1 maps the page
			{Proc: 0, Kind: OpWrite, Page: 0}, // home write: master = v1
			{Proc: 1, Kind: OpBarrier},
			{Proc: 0, Kind: OpBarrier},       // flush posts notice to node 1
			{Proc: 3, Kind: OpAcquire},       // drain invalidates p3 only
			{Proc: 3, Kind: OpBarrier},       //
			{Proc: 2, Kind: OpRead, Page: 0}, // p2 maps the stale frame, no notice queued
			{Proc: 2, Kind: OpBarrier},       // rendezvous: p2 still maps stale data
		},
		invariant: "barrier-converged",
	},
	{
		// A one-level release moves the page into exclusive mode but
		// keeps the twin, which then goes stale across exclusive-era
		// writes.
		opts: Options{Protocol: core.OneLevelDiff, Defect: "keep-exclusive-twin"},
		schedule: []Op{
			{Proc: 3, Kind: OpWrite, Page: 0},
			{Proc: 3, Kind: OpRelease}, // enters exclusive, twin retained
		},
		invariant: "exclusive-sole",
	},
	{
		// A one-level release moves a page into exclusive mode from a
		// copy that is no longer current: the node's mapping was
		// invalidated by a notice at its acquire, and its sharer left
		// the set the same way. Both nodes then enter exclusive mode.
		// Four one-processor nodes, page 1 homed on node 1.
		opts: Options{Nodes: 4, ProcsPerNode: 1, Words: 4, Protocol: core.OneLevelDiff,
			Defect: "stale-exclusive-entry"},
		schedule: []Op{
			{Proc: 2, Kind: OpWrite, Page: 1, Word: 3},
			{Proc: 0, Kind: OpWrite, Page: 1, Word: 1},
			{Proc: 0, Kind: OpRelease},                 // notice to node 2
			{Proc: 0, Kind: OpWrite, Page: 1, Word: 0}, // w0 pending on node 0
			{Proc: 2, Kind: OpRelease},                 // notice to node 0
			{Proc: 0, Kind: OpAcquire},                 // node 0 unmapped, leaves the set
			{Proc: 2, Kind: OpWrite, Page: 1, Word: 0}, // w0 pending on node 2
			{Proc: 2, Kind: OpAcquire},                 // node 2 unmapped, leaves the set
			{Proc: 2, Kind: OpBarrier},                 // node 2 flushes, enters exclusive
			{Proc: 0, Kind: OpBarrier},                 // node 0 flushes, enters exclusive too
		},
		invariant: "exclusive-sole",
	},
	{
		// A write fault joins an exclusively-held page whose directory
		// word records only read-only access (a one-level re-entry after
		// a break downgrade) without republishing the word.
		opts: Options{Protocol: core.OneLevelDiff, Defect: "skip-exclusive-republish"},
		schedule: []Op{
			{Proc: 3, Kind: OpWrite, Page: 0},
			{Proc: 3, Kind: OpRelease},        // exclusive
			{Proc: 0, Kind: OpBreak, Page: 0}, // downgrades p3 to ro
			{Proc: 3, Kind: OpRelease},        // re-enters exclusive, word records ro
			{Proc: 3, Kind: OpWrite, Page: 0}, // joins exclusively at rw, word left at ro
		},
		invariant: "dir-agree",
	},
}

func TestReintroducedDefectsAreCaught(t *testing.T) {
	for _, dc := range defectCases {
		t.Run(dc.opts.Defect, func(t *testing.T) {
			// The schedule must run clean on the fixed protocol: what it
			// exercises is the defect, not an unrelated weakness.
			fixed := dc.opts
			fixed.Defect = ""
			if v, err := RunSchedule(fixed, dc.schedule); err != nil {
				t.Fatal(err)
			} else if v != nil {
				t.Fatalf("schedule violates %q on the fixed protocol", v.Invariant)
			}

			v, err := RunSchedule(dc.opts, dc.schedule)
			if err != nil {
				t.Fatal(err)
			}
			if v == nil {
				t.Fatalf("defect re-introduced but the checker saw nothing")
			}
			if v.Invariant != dc.invariant {
				t.Fatalf("violated %q, want %q (detail: %s)", v.Invariant, dc.invariant, v.Detail)
			}

			// The violation must round-trip as a replayable
			// counterexample.
			cx := &Counterexample{Options: dc.opts, Schedule: dc.schedule, Violation: *v}
			data, err := cx.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			got, err := Replay(decoded, &out)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil {
				t.Fatalf("replay diverged:\n%s", out.String())
			}
			if got.Invariant != dc.invariant {
				t.Fatalf("replay violated %q, want %q", got.Invariant, dc.invariant)
			}
			if !strings.Contains(out.String(), "VIOLATION") {
				t.Errorf("replay output missing VIOLATION marker:\n%s", out.String())
			}
		})
	}
}

// TestFuzzerFindsReintroducedDefects proves the random fuzzer — not just
// a scripted schedule — rediscovers the defects that originally needed
// deep interleavings, and that the minimized counterexample still
// reproduces.
func TestFuzzerFindsReintroducedDefects(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz batch")
	}
	for _, opts := range []Options{
		{Protocol: core.TwoLevel, Defect: "incoming-clobber"},
		{Protocol: core.OneLevelDiff, Defect: "keep-exclusive-twin"},
	} {
		t.Run(opts.Defect, func(t *testing.T) {
			res, err := Fuzz(opts, 1, 500, 40)
			if err != nil {
				t.Fatal(err)
			}
			cx := res.Counterexample
			if cx == nil {
				t.Fatalf("fuzzer missed the re-introduced defect in %d schedules", res.Runs)
			}
			// Minimize already re-verified the shrunken schedule; check
			// it reproduces one more time from scratch, from the options
			// the counterexample recorded.
			v, err := RunSchedule(cx.Options, cx.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			if v == nil || v.Invariant != cx.Violation.Invariant {
				t.Fatalf("minimized counterexample does not reproduce %q", cx.Violation.Invariant)
			}
			t.Logf("found %q with a %d-op schedule (seed %d)", cx.Violation.Invariant, len(cx.Schedule), cx.Seed)
		})
	}
}

func TestUnknownDefectIsAnError(t *testing.T) {
	_, err := RunSchedule(Options{Defect: "nope"}, []Op{{Proc: 0, Kind: OpRead}})
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("RunSchedule with defect %q: err = %v, want an error naming it", "nope", err)
	}
}

// TestReplayFixtures replays every committed counterexample and
// requires the invariant it records. The files pin the counterexample
// format the way wire's golden frames pin the frame layout: an option
// renamed or dropped from the JSON shows up here as a file that no
// longer decodes or no longer reproduces.
func TestReplayFixtures(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no counterexample fixtures (err %v)", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cx, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			v, err := Replay(cx, &out)
			if err != nil {
				t.Fatal(err)
			}
			if v == nil || v.Invariant != cx.Violation.Invariant {
				t.Fatalf("replay violated %v, want %q:\n%s", v, cx.Violation.Invariant, out.String())
			}
		})
	}
}
