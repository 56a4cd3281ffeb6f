package trace

import (
	"sync"
	"testing"
)

// TestRingWraparound exercises the overwrite path: a full ring keeps
// the newest window, reports the overflow in Dropped, and Snapshot
// returns exactly the surviving events oldest-first.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: EvDirUpdate, Proc: 3, Node: 1, Page: int32(i), VT: int64(i * 100), Arg: int64(i)})
	}
	if got := r.Emitted(); got != 10 {
		t.Errorf("Emitted = %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	evs := r.Snapshot(nil)
	if len(evs) != 4 {
		t.Fatalf("Snapshot returned %d events, want 4", len(evs))
	}
	for i, e := range evs {
		want := int64(6 + i)
		if e.Arg != want || e.VT != want*100 || e.Page != int32(want) {
			t.Errorf("event %d = %+v, want Arg=%d VT=%d Page=%d", i, e, want, want*100, want)
		}
		if e.Kind != EvDirUpdate || e.Proc != 3 || e.Node != 1 {
			t.Errorf("event %d metadata = %+v", i, e)
		}
	}
}

// TestRingCapacityRounding checks the power-of-two rounding and the
// minimum size.
func TestRingCapacityRounding(t *testing.T) {
	for _, c := range []struct{ ask, want int }{{0, 2}, {1, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}} {
		if got := NewRing(c.ask).Cap(); got != c.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", c.ask, got, c.want)
		}
	}
}

// TestMetaRoundTrip checks the packed metadata word, including the -1
// sentinels for proc and page used by link-track events.
func TestMetaRoundTrip(t *testing.T) {
	cases := []Event{
		{Kind: EvReadFault, Proc: 0, Node: 0, Page: 0},
		{Kind: EvMsgSend, Proc: -1, Node: 7, Page: -1},
		{Kind: EvBarrier, Proc: 31, Node: 7, Page: -1},
		{Kind: EvLinkTransfer, Proc: -1, Node: 0, Page: 1<<31 - 2},
	}
	for _, in := range cases {
		var out Event
		unpackMeta(packMeta(in), &out)
		if out.Kind != in.Kind || out.Proc != in.Proc || out.Node != in.Node || out.Page != in.Page {
			t.Errorf("round trip %+v -> %+v", in, out)
		}
	}
}

// TestRingConcurrentSnapshot runs an exporter against a live producer.
// Every event the snapshot returns must be fully committed — the
// sequence validation must never surface a torn slot — and the race
// detector checks the memory discipline.
func TestRingConcurrentSnapshot(t *testing.T) {
	r := NewRing(64)
	const total = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			// Arg mirrors VT so a reader can verify slot integrity.
			r.Emit(Event{Kind: EvDirUpdate, Proc: 1, Node: 0, Page: int32(i % 128), VT: int64(i), Arg: int64(i)})
		}
	}()
	var buf []Event
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		buf = r.Snapshot(buf[:0])
		for _, e := range buf {
			if e.Arg != e.VT {
				t.Fatalf("torn event surfaced: %+v", e)
			}
			if e.Kind != EvDirUpdate {
				t.Fatalf("corrupt kind: %+v", e)
			}
		}
	}
	if got := r.Emitted(); got != total {
		t.Errorf("Emitted = %d, want %d", got, total)
	}
	buf = r.Snapshot(buf[:0])
	if len(buf) != r.Cap() {
		t.Errorf("final snapshot has %d events, want %d", len(buf), r.Cap())
	}
}

// TestTracerConcurrentEmitExport drives every tracer surface at once:
// per-processor producers, multi-producer link emission, and a
// concurrent Events export. Correctness here is largely the race
// detector's verdict plus the final census.
func TestTracerConcurrentEmitExport(t *testing.T) {
	tr := New(Config{Procs: 4, Links: 2, RingSize: 1 << 10})
	const perProc = 500
	var wg sync.WaitGroup
	for p := 0; p < tr.Procs(); p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				tr.EmitProc(p, Event{Kind: EvReadFault, Proc: int32(p), Node: int32(p / 2), Page: int32(i), VT: int64(i), Dur: 10})
				tr.EmitLink(p/2, Event{Kind: EvLinkTransfer, Proc: -1, Node: int32(p / 2), Page: -1, VT: int64(i), Arg: 64})
			}
		}()
	}
	stop := make(chan struct{})
	var exp sync.WaitGroup
	exp.Add(1)
	go func() {
		defer exp.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Events()
				_ = tr.Summary()
			}
		}
	}()
	wg.Wait()
	close(stop)
	exp.Wait()

	evs := tr.Events()
	want := tr.Procs()*perProc + tr.Procs()*perProc // proc events + link events
	if len(evs) != want {
		t.Fatalf("Events returned %d, want %d", len(evs), want)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].VT < evs[i-1].VT {
			t.Fatalf("Events not sorted by VT at %d: %d after %d", i, evs[i].VT, evs[i-1].VT)
		}
	}
	sum := tr.Summary()
	if sum.Events["read-fault"] != int64(tr.Procs()*perProc) {
		t.Errorf("summary read-fault = %d, want %d", sum.Events["read-fault"], tr.Procs()*perProc)
	}
	if sum.FaultLatencyNS.Count != int64(tr.Procs()*perProc) {
		t.Errorf("fault latency count = %d", sum.FaultLatencyNS.Count)
	}
}

// TestSummarySurvivesWraparound: histogram summaries accumulate at
// emission time, so they stay exact even after the ring has overwritten
// the events they came from.
func TestSummarySurvivesWraparound(t *testing.T) {
	tr := New(Config{Procs: 1, Links: 0, RingSize: 2})
	const n = 100
	var wantSum int64
	for i := 1; i <= n; i++ {
		tr.EmitProc(0, Event{Kind: EvWriteFault, Proc: 0, Node: 0, Page: 0, VT: int64(i), Dur: int64(i)})
		wantSum += int64(i)
	}
	sum := tr.Summary()
	if sum.Events["write-fault"] != n {
		t.Errorf("write-fault count = %d, want %d", sum.Events["write-fault"], n)
	}
	if sum.FaultLatencyNS.Count != n || sum.FaultLatencyNS.Sum != wantSum {
		t.Errorf("fault hist = count %d sum %d, want %d/%d",
			sum.FaultLatencyNS.Count, sum.FaultLatencyNS.Sum, n, wantSum)
	}
	if sum.Dropped == 0 {
		t.Error("expected drops with a 2-slot ring")
	}
	var total int64
	for _, b := range sum.FaultLatencyNS.Buckets {
		total += b.Count
	}
	if total != n {
		t.Errorf("bucket counts sum to %d, want %d", total, n)
	}
}

// TestClampPages checks the out-of-range page rejection shared by
// CASHMERE_TRACE_PAGE and -trace-pages.
func TestClampPages(t *testing.T) {
	tr := New(Config{Procs: 1, Links: 1, RingSize: 4,
		Pages: map[int]bool{1: true, 9: true, 99: true}})
	var warned []int
	tr.ClampPages(10, func(p int) { warned = append(warned, p) })
	if len(warned) != 1 || warned[0] != 99 {
		t.Errorf("warned = %v, want [99]", warned)
	}
	if !tr.TracesPage(1) || !tr.TracesPage(9) {
		t.Error("in-range pages dropped from filter")
	}
	if tr.TracesPage(99) {
		t.Error("out-of-range page survived clamp")
	}
}

// TestParsePageList checks both directions of the list syntax,
// including the rejects that used to be silently dropped.
func TestParsePageList(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
	}{
		{"7", []int{7}},
		{"0", []int{0}},
		{"7,12,40", []int{7, 12, 40}},
		{"7, 12,40", []int{7, 12, 40}},
		{" 7 , 12 ", []int{7, 12}},
	} {
		pages, err := ParsePageList(c.in)
		if err != nil {
			t.Errorf("ParsePageList(%q): %v", c.in, err)
			continue
		}
		if len(pages) != len(c.want) {
			t.Errorf("ParsePageList(%q) = %v, want %v", c.in, pages, c.want)
		}
		for _, p := range c.want {
			if !pages[p] {
				t.Errorf("ParsePageList(%q) is missing page %d", c.in, p)
			}
		}
	}
	for _, bad := range []string{"", "x", "7,", "7,,12", "7;12", "-1", "7,-2", "7,nope"} {
		if pages, err := ParsePageList(bad); err == nil {
			t.Errorf("ParsePageList(%q) = %v, want an error", bad, pages)
		}
	}
}
