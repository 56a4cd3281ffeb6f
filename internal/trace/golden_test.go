package trace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cashmere/internal/core"
	"cashmere/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tracedRun drives a small deterministic workload on two
// single-processor nodes under a fresh tracer and returns it. The
// phases are serialized by set-once flags so no two processors ever
// contend for the interconnect at the same virtual instant — the
// simulator breaks genuine virtual-time ties by host arrival order, so
// a byte-stable trace must avoid them. (Application init epochs are
// avoided for the same reason: the charging toggle around BeginInit
// races with the other processors' barrier wake-ups.) The workload
// still exercises the protocol broadly: remote write faults with twin
// creation, read faults with page fetches, release-time diff flushes
// and write notices, acquire-time invalidations, and an ordered lock
// handoff.
func tracedRun(t *testing.T) *trace.Tracer {
	t.Helper()
	tr := trace.New(trace.Config{Procs: 2, Links: 2})
	c, err := core.New(core.Config{
		Nodes:        2,
		ProcsPerNode: 1,
		Protocol:     core.TwoLevel,
		PageWords:    16,
		SharedWords:  16 * 8, // 8 pages, homes alternating round-robin
		Locks:        1,
		Flags:        8,
		Trace:        tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	const half = 4 * 16 // words per processor's half of the array
	c.Run(func(p *core.Proc) {
		me := p.ID()
		mine, theirs := me*half, (1-me)*half

		// Phase A: each processor fills its half, in turn.
		if me == 1 {
			p.WaitFlag(0)
		}
		for i := 0; i < half; i++ {
			p.Store(mine+i, int64(me*1000+i))
		}
		p.SetFlag(me)
		if me == 0 {
			p.WaitFlag(1)
		}
		p.Barrier()

		// Phase B: each processor reads the other's half, in turn.
		if me == 1 {
			p.WaitFlag(2)
		}
		for i := 0; i < half; i++ {
			if got := p.Load(theirs + i); got != int64((1-me)*1000+i) {
				t.Errorf("proc %d read %d at %d", me, got, theirs+i)
				break
			}
		}
		p.SetFlag(2 + me)
		if me == 0 {
			p.WaitFlag(3)
		}
		p.Barrier()

		// Phase C: an ordered lock handoff over a shared counter.
		if me == 0 {
			p.Lock(0)
			p.Store(0, 42)
			p.Unlock(0)
			p.SetFlag(4)
			p.WaitFlag(5)
		} else {
			p.WaitFlag(4)
			p.Lock(0)
			p.Store(1, p.Load(0)+1)
			p.Unlock(0)
			p.SetFlag(5)
		}
		p.Barrier()
	})
	return tr
}

func chromeJSON(t *testing.T, tr *trace.Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr.Recording()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChromeGolden pins the complete Chrome trace-event JSON of the
// two-processor workload against a golden file. Wall-time stamps are
// never exported and virtual time is a function of
// the program and cost model alone, so with the tie-free workload above
// the file is bit-stable. GOMAXPROCS is pinned and the test skips under
// -race for the same reasons as the virtual-time determinism test (see
// internal/bench/determinism_test.go). Regenerate with:
//
//	go test ./internal/trace -run TestChromeGolden -update
func TestChromeGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("virtual-time tie-breaks are host-order dependent under -race (see internal/bench/determinism_test.go)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	got := chromeJSON(t, tracedRun(t))
	golden := filepath.Join("testdata", "two_proc_chrome.json")
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
	if bytes.Equal(got, want) {
		return
	}
	// Distinguish a real regression from an unrepeatable host schedule:
	// if a second fresh run disagrees with the first, this host isn't
	// scheduling repeatably and the comparison is meaningless.
	again := chromeJSON(t, tracedRun(t))
	if !bytes.Equal(again, got) {
		t.Skip("host schedule not repeatable; golden comparison skipped")
	}
	line := 1 + bytes.Count(want[:commonPrefix(got, want)], []byte("\n"))
	t.Errorf("chrome trace diverges from %s at line %d (got %d bytes, want %d); regenerate with -update if the change is intended",
		golden, line, len(got), len(want))
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// TestChromeStructure validates the exporter's output shape on the same
// run without pinning exact bytes, so it runs under -race too: the file
// must parse as Chrome trace-event JSON with the expected process and
// thread metadata and only committed, well-formed events.
func TestChromeStructure(t *testing.T) {
	tr := tracedRun(t)
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("two-proc run recorded no events")
	}
	kinds := map[string]bool{}
	for _, e := range evs {
		kinds[e.Kind.String()] = true
	}
	for _, want := range []string{
		"read-fault", "write-fault", "page-fetch", "twin", "diff-out",
		"notice-send", "barrier", "lock", "unlock", "flag-set",
		"flag-wait", "dir-update", "link-transfer", "msg-send",
	} {
		if !kinds[want] {
			t.Errorf("no %s events in the two-node run (got %v)", want, kinds)
		}
	}
	if tr.Dropped() != 0 {
		t.Errorf("default ring size dropped %d events on a tiny run", tr.Dropped())
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chromeJSON(t, tr), &file); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	var meta, spans, instants int
	for _, e := range file.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			spans++
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q in event %+v", e.Ph, e)
		}
		if e.Ph != "M" && e.PID != 1 && e.PID != 2 {
			t.Errorf("event on unknown pid %d: %+v", e.PID, e)
		}
	}
	if meta < 2+2+2 { // two process_name + two cpu threads + two link threads
		t.Errorf("only %d metadata events", meta)
	}
	if spans == 0 || instants == 0 {
		t.Errorf("want both spans and instants, got %d/%d", spans, instants)
	}
}

// TestPageTimeline dumps the same run's page timeline: every line is on
// the simulator's virtual clock, the page filter is the argument's and
// nobody else's, and a link event prints under its link's label.
func TestPageTimeline(t *testing.T) {
	rec := tracedRun(t).Recording()
	if rec.Clock != trace.ClockVirtual {
		t.Errorf("simulator recording on clock %q, want %q", rec.Clock, trace.ClockVirtual)
	}
	dump := func(pages map[int]bool) []string {
		var buf bytes.Buffer
		if err := trace.WritePageTimeline(&buf, rec, pages); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	}
	all, page1 := dump(nil), dump(map[int]bool{1: true})
	if len(page1) == 0 || len(page1) >= len(all) {
		t.Fatalf("%d lines for page 1 of %d for every page", len(page1), len(all))
	}
	for _, line := range all {
		if !strings.HasPrefix(line, "vt=") {
			t.Errorf("line %q is not on the vt clock", line)
		}
	}
	for _, line := range page1 {
		if !strings.Contains(line, " pg1 ") {
			t.Errorf("line %q passed a filter of page 1", line)
		}
	}
	rec.Events = append(rec.Events, trace.Event{Kind: trace.EvLinkTransfer, Proc: -1, Node: 1, Page: 7, VT: 9, Dur: 5, Arg: 64})
	if last := dump(map[int]bool{7: true}); last[len(last)-1] != "vt=9ns link1 pg7 link-transfer dur=5ns bytes=64" {
		t.Errorf("link event printed as %q", last[len(last)-1])
	}
}
