package trace_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cashmere/internal/trace"
)

// syntheticRankTracks hand-authors the event buffers of a 2-rank, 2
// procs-per-node SOR-shaped run: each rank faults in the other's
// boundary row, flushes a diff at the barrier, and the homes apply
// diffs and post write notices on their handler ("net") threads. The
// tracks deliberately arrive out of rank order and with different
// clock offsets, so the golden file pins Merge's sorting, alignment,
// and re-basing and the exporter's rendering of its track table — a
// real run's wall-clock stamps could never be byte-stable.
func syntheticRankTracks() []trace.RankTrack {
	ev := func(k trace.Kind, proc, node, page int, vt, dur, arg, arg2 int64) trace.Event {
		return trace.Event{
			Kind: k, Proc: int32(proc), Node: int32(node), Page: int32(page),
			VT: vt, Dur: dur, WT: vt, Arg: arg, Arg2: arg2,
		}
	}
	// Rank 0's tracer started at offset 1_000_000 on the merged
	// timeline; rank 1's at 1_000_500 (a 500 ns clock skew after
	// alignment). Events interleave across ranks when merged.
	rank0 := []trace.Event{
		ev(trace.EvReadFault, 0, 0, 3, 100, 900, 0, 0),
		ev(trace.EvPageFetch, 0, 0, 3, 150, 800, 1024, 1),
		ev(trace.EvWriteFault, 1, 0, 2, 400, 300, 0, 0),
		ev(trace.EvDiffOut, 0, 0, 2, 2_000, 0, 16, trace.PackWordSpan(0, 15)),
		ev(trace.EvFlushFence, 0, 0, -1, 1_950, 600, 1, 0),
		ev(trace.EvBarrier, 0, 0, -1, 1_900, 1_200, 1, 0),
		ev(trace.EvBarrier, 1, 0, -1, 1_980, 1_100, 1, 0),
		// Handler thread: rank 1's diff lands on a page homed here.
		ev(trace.EvDiffIn, 2, 0, 5, 2_600, 0, 16, 1),
		ev(trace.EvNoticeSend, 2, 0, 5, 2_610, 0, 1, 0),
	}
	rank1 := []trace.Event{
		ev(trace.EvReadFault, 0, 1, 5, 120, 700, 0, 0),
		ev(trace.EvPageFetch, 0, 1, 5, 160, 600, 1024, 0),
		ev(trace.EvDiffOut, 1, 1, 5, 1_800, 0, 16, trace.PackWordSpan(16, 31)),
		ev(trace.EvFlushFence, 1, 1, -1, 1_750, 700, 1, 0),
		ev(trace.EvBarrier, 0, 1, -1, 1_700, 1_400, 1, 0),
		ev(trace.EvBarrier, 1, 1, -1, 1_740, 1_300, 1, 0),
		// Handler thread: rank 0's write notice invalidates our copy.
		ev(trace.EvNoticeApply, 2, 1, 5, 2_900, 0, 1, 0),
	}
	return []trace.RankTrack{
		{Rank: 1, Procs: 2, OffsetNS: 1_000_500, Events: rank1},
		{Rank: 0, Procs: 2, OffsetNS: 1_000_000, Events: rank0},
	}
}

func merged(t *testing.T) *trace.Recording {
	t.Helper()
	rec, err := trace.Merge(syntheticRankTracks())
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func mergedJSON(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, merged(t)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChromeRanksGolden pins the merged multi-rank Perfetto export
// byte-for-byte, through the same WriteChrome that TestChromeGolden
// holds to the simulator's file. The input is synthetic and merge and
// export are pure functions of it, so no scheduling caveats apply.
// Regenerate with:
//
//	go test ./internal/trace -run TestChromeRanksGolden -update
func TestChromeRanksGolden(t *testing.T) {
	got := mergedJSON(t)
	golden := filepath.Join("testdata", "merged_ranks_chrome.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		line := 1 + bytes.Count(want[:commonPrefix(got, want)], []byte("\n"))
		t.Errorf("merged trace diverges from %s at line %d (got %d bytes, want %d); regenerate with -update if the change is intended",
			golden, line, len(got), len(want))
	}
}

// TestChromeRanksStructure validates the merged export's shape: one
// Perfetto process per rank with proc/net thread names, timestamps
// re-based to zero, clock offsets applied, and events sorted by
// aligned time.
func TestChromeRanksStructure(t *testing.T) {
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(mergedJSON(t), &file); err != nil {
		t.Fatalf("merged output is not valid JSON: %v", err)
	}

	threadNames := map[[2]int]string{} // (pid, tid) -> name
	var procNames []string
	var minTS = -1.0
	var lastTS float64
	var real int
	for _, e := range file.TraceEvents {
		switch e.Ph {
		case "M":
			name, _ := e.Args["name"].(string)
			if e.Name == "process_name" {
				procNames = append(procNames, name)
			} else {
				threadNames[[2]int{e.PID, e.TID}] = name
			}
		case "X", "i":
			real++
			if minTS < 0 || e.TS < minTS {
				minTS = e.TS
			}
			if e.TS < lastTS {
				t.Errorf("events out of timestamp order: %g after %g", e.TS, lastTS)
			}
			lastTS = e.TS
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if want := []string{"rank 0", "rank 1"}; len(procNames) != 2 || procNames[0] != want[0] || procNames[1] != want[1] {
		t.Errorf("process names = %v, want %v", procNames, want)
	}
	for pid := 1; pid <= 2; pid++ {
		for tid := 0; tid < 2; tid++ {
			if got := threadNames[[2]int{pid, tid}]; got != "proc "+string(rune('0'+tid)) {
				t.Errorf("thread (%d,%d) named %q", pid, tid, got)
			}
		}
		if got := threadNames[[2]int{pid, 2}]; got != "net" {
			t.Errorf("thread (%d,2) named %q, want net", pid, got)
		}
	}
	if real == 0 {
		t.Fatal("no events in merged output")
	}
	if minTS != 0 {
		t.Errorf("merged timeline starts at %g µs, want re-base to 0", minTS)
	}

	// Alignment: rank 0's first event (VT 100, offset 1_000_000) is the
	// timeline base; rank 1's first event (VT 120, offset 1_000_500)
	// must land 520 ns = 0.52 µs later.
	var first0, first1 float64 = -1, -1
	for _, e := range file.TraceEvents {
		if e.Ph != "X" && e.Ph != "i" {
			continue
		}
		if e.PID == 1 && first0 < 0 {
			first0 = e.TS
		}
		if e.PID == 2 && first1 < 0 {
			first1 = e.TS
		}
	}
	if first0 != 0 || first1 != 0.52 {
		t.Errorf("first event per rank at %g/%g µs, want 0/0.52 (clock offsets misapplied)", first0, first1)
	}
}

// TestMergeRecording checks the plain-data side of the merge: global
// processor ids numbered in rank order, handler events on Proc = -1 of
// their rank's node, the wall clock's name, drop counts summed, and a
// timeline that prints both ranks in aligned-time order.
func TestMergeRecording(t *testing.T) {
	tracks := syntheticRankTracks()
	tracks[0].Dropped, tracks[1].Dropped = 3, 4
	rec, err := trace.Merge(tracks)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clock != trace.ClockWall || rec.Dropped != 7 {
		t.Errorf("clock %q, dropped %d; want %q, 7", rec.Clock, rec.Dropped, trace.ClockWall)
	}
	if len(rec.Procs) != 4 || len(rec.Nodes) != 2 {
		t.Fatalf("%d processor and %d node tracks, want 4 and 2", len(rec.Procs), len(rec.Nodes))
	}
	var handler int
	for i, e := range rec.Events {
		if i > 0 && e.VT < rec.Events[i-1].VT {
			t.Errorf("event %d at %d ns follows one at %d ns", i, e.VT, rec.Events[i-1].VT)
		}
		switch {
		case e.Proc == -1:
			handler++
			if e.Kind != trace.EvDiffIn && e.Kind != trace.EvNoticeSend && e.Kind != trace.EvNoticeApply {
				t.Errorf("%v on node %d's handler track", e.Kind, e.Node)
			}
		case int(e.Proc)/2 != int(e.Node):
			t.Errorf("processor %d on node %d, want rank*2+local: %+v", e.Proc, e.Node, e)
		}
	}
	if handler != 3 {
		t.Errorf("%d handler events on Proc = -1, want 3", handler)
	}

	var buf bytes.Buffer
	if err := trace.WritePageTimeline(&buf, rec, map[int]bool{5: true}); err != nil {
		t.Fatal(err)
	}
	want := `wt=520ns p2 n1 pg5 read-fault dur=700ns
wt=560ns p2 n1 pg5 page-fetch dur=600ns bytes=1024
wt=2200ns p3 n1 pg5 diff-out words=16 span=68719476768
wt=2500ns net n0 pg5 diff-in words=16 arg2=1
wt=2510ns net n0 pg5 notice-send to=1
wt=3300ns net n1 pg5 notice-apply arg=1
`
	if buf.String() != want {
		t.Errorf("page 5 timeline:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestMergeChecksItsInput: rank reports come from other processes, and
// Merge indexes the track table with what they say.
func TestMergeChecksItsInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(tracks []trace.RankTrack)
		want string
	}{
		{"ring beyond the handler's", func(tk []trace.RankTrack) { tk[0].Events[2].Proc = 3 },
			"rank 1's event 2 (diff-out) is on ring 3 of node 1; the rank has rings 0..2"},
		{"negative ring", func(tk []trace.RankTrack) { tk[1].Events[0].Proc = -1 },
			"rank 0's event 0 (read-fault) is on ring -1"},
		{"another rank's node", func(tk []trace.RankTrack) { tk[1].Events[7].Node = 1 },
			"rank 0's event 7 (diff-in) is on ring 2 of node 1"},
		{"a rank twice", func(tk []trace.RankTrack) { tk[1].Rank = 1 }, "got rank 1 in place 0"},
		{"a rank missing", func(tk []trace.RankTrack) { tk[0].Rank = 2 }, "got rank 2 in place 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracks := syntheticRankTracks()
			tc.edit(tracks)
			if _, err := trace.Merge(tracks); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Merge returned %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
