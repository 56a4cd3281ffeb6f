package metrics

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cashmere/internal/trace"
)

// TestTraceOutputs writes one tiny recording as each command's tracing
// flags would ask: each file asked for appears, with the page filter on
// the timeline and the title on the profile, and none that was not.
func TestTraceOutputs(t *testing.T) {
	tr := trace.New(trace.Config{Procs: 2, Links: 1})
	tr.EmitProc(0, trace.Event{Kind: trace.EvWriteFault, Proc: 0, Page: 3, VT: 10, Dur: 5})
	tr.EmitProc(1, trace.Event{Kind: trace.EvReadFault, Proc: 1, Page: 4, VT: 20, Dur: 5})
	rec := tr.Recording()

	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	read := func(name string) string {
		t.Helper()
		b, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	outs, err := NewTraceOutputs(path("run.json"), path("run.tl"), path("run.prof"), "3", "")
	if err != nil || !outs.Wanted() {
		t.Fatalf("TraceOutputs() = %+v, %v", outs, err)
	}
	if err := outs.Write(rec); err != nil {
		t.Fatal(err)
	}
	if got := read("run.tl"); got != "vt=10ns p0 n0 pg3 write-fault dur=5ns\n" {
		t.Errorf("timeline restricted to page 3:\n%s", got)
	}
	if got := read("run.json"); !strings.Contains(got, `"name": "cpu 1"`) || !strings.Contains(got, `"read-fault"`) {
		t.Errorf("trace file lacks a track or an event:\n%s", got)
	}
	if got := read("run.prof"); !strings.HasPrefix(got, "hot pages (2 of 2") {
		t.Errorf("profile:\n%s", got)
	}

	outs, err = NewTraceOutputs("", "", path("bench.prof"), "", "hot-page/hot-lock profile of SOR/2L/32:4")
	if err != nil || !outs.Wanted() {
		t.Fatalf("TraceOutputs() = %+v, %v", outs, err)
	}
	if err := outs.Write(rec); err != nil {
		t.Fatal(err)
	}
	if got := read("bench.prof"); !strings.HasPrefix(got, "hot-page/hot-lock profile of SOR/2L/32:4\n\nhot pages (") {
		t.Errorf("titled profile:\n%s", got)
	}
	if files, _ := os.ReadDir(dir); len(files) != 4 {
		t.Errorf("%d files written, want 4", len(files))
	}

	// -trace-pages is read only by a run something asks to trace.
	if _, err := NewTraceOutputs("x", "", "", "3,,4", ""); err == nil || !strings.Contains(err.Error(), "-trace-pages") {
		t.Errorf("bad page list with -trace: %v", err)
	}
	if outs, err := NewTraceOutputs("", "", "", "3,,4", ""); err != nil || outs.Wanted() {
		t.Errorf("untraced run: %+v, %v", outs, err)
	}
}
