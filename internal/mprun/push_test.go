package mprun

import (
	"slices"
	"testing"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/trace"
	"cashmere/internal/transport/wire"
)

// The tests of pushes ("Pushes" in the package doc). The sharer side
// plays the home of remotePage, rank 1, pushing to tapNode's rank 0,
// whose copy the give-up rule has made a kept one; the home side plays
// the sharers of homePage.

// keptCopy plays the give-up rule to its end on remotePage — a notice, a
// diff that gives the copy up, a refetch and another notice — after
// which the node keeps its copy (cpage.keep), and then has a processor
// refetch the page holding words. That request must carry both marks.
// It returns the processor, which has no page dirty.
func keptCopy(t *testing.T, n *node, tp *tap, words map[int]int64) *proc {
	t.Helper()
	p := n.newProc(0)
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, nil)
	p.Store(base+100, 1)
	notice(t, n, tp)
	flushRemote(t, p, tp)
	loadRemote(t, n, tp, p, 0, map[int]int64{100: 1})
	p.Store(base+100, 2)
	if d := flushRemote(t, p, tp); d.C != 1 {
		t.Fatalf("the release after a notice sent C=%d, want the give-up", d.C)
	}
	loadRemote(t, n, tp, p, 0, map[int]int64{100: 2})
	notice(t, n, tp)
	loaded := make(chan int64)
	go func() { loaded <- p.Load(base) }()
	req := tp.next(t, wire.TPageReq)
	if req.B != deltaMark|keepMark {
		t.Fatalf("the request after a wasted give-up carried marks %d, want %d", req.B, deltaMark|keepMark)
	}
	n.handle(1, reply(req, words))
	<-loaded
	return p
}

// push plays rank 1 pushing runs of remotePage, and fails unless the
// node acknowledges the push as it would a notice.
func push(t *testing.T, n *node, tp *tap, offs []int32, words []int64) {
	t.Helper()
	n.handle(1, wire.Frame{Type: wire.TWriteNotice, A: remotePage, B: 8, Offs: offs, Words: words})
	if to, ack := tp.nextTo(t, wire.TNoticeAck); to != 1 || ack.A != remotePage || ack.B != 8 {
		t.Fatalf("push acknowledged with %+v to rank %d, want page %d, token 8, to rank 1", ack, to, remotePage)
	}
}

// wantLoads fails unless p loads each word of remotePage as want says.
func wantLoads(t *testing.T, p *proc, want map[int]int64, when string) {
	t.Helper()
	for off, v := range want {
		if got := p.Load(remotePage*apps.PageWords + off); got != v {
			t.Errorf("%s: word %d = %d, want %d", when, off, got, v)
		}
	}
}

// TestPushInstallsIntoKeptCopy: a push into a valid kept copy with no
// twin, request or diff out is applied, and the copy stays valid and in
// step: loads need no fetch.
func TestPushInstallsIntoKeptCopy(t *testing.T) {
	n, tp := tapNode()
	p := keptCopy(t, n, tp, map[int]int64{9: 90})
	push(t, n, tp, []int32{3, 2}, []int64{30, 40})
	if !n.validLocked(remotePage) {
		t.Fatal("the push invalidated a copy it could go into")
	}
	wantLoads(t, p, map[int]int64{3: 30, 4: 40, 9: 90}, "after the push")
	tp.quiet(t, "loads of a pushed copy")
}

// TestPushMergesUnderTwin: a push into a copy with unflushed local
// writes keeps the local words, and the twin takes every run word, so
// the next diff carries the local word and nothing the push brought.
func TestPushMergesUnderTwin(t *testing.T) {
	n, tp := tapNode()
	p := keptCopy(t, n, tp, map[int]int64{9: 90})
	p.Store(remotePage*apps.PageWords+5, 50)
	push(t, n, tp, []int32{3, 1, 5, 1}, []int64{30, 55})
	if !n.validLocked(remotePage) {
		t.Fatal("the push invalidated a twinned copy it could merge into")
	}
	wantLoads(t, p, map[int]int64{3: 30, 5: 50, 9: 90}, "after the push")
	if d := flushRemote(t, p, tp); !slices.Equal(d.Offs, []int32{5, 1}) || !slices.Equal(d.Words, []int64{50}) {
		t.Fatalf("the release after the push sent runs %v words %v, want the local word 5 alone", d.Offs, d.Words)
	}
}

// TestPushDroppedDisownsRequestInFlight: a push finding a request for
// the page in flight drops its runs and disowns the request, whose reply
// the home builds from the mask the push emptied; the waiter asks again,
// for the whole page, and still says it keeps its copy.
func TestPushDroppedDisownsRequestInFlight(t *testing.T) {
	n, tp := tapNode()
	p := keptCopy(t, n, tp, map[int]int64{9: 90})
	notice(t, n, tp) // a plain notice, say from an untracked interval
	loaded := make(chan int64)
	go func() { loaded <- p.Load(remotePage*apps.PageWords + 3) }()
	stale := tp.next(t, wire.TPageReq)
	n.handle(1, wire.Frame{Type: wire.TWriteNotice, A: remotePage, B: 8, Offs: []int32{3, 1}, Words: []int64{30}})
	// The acknowledgement and the re-request leave from two goroutines.
	var again wire.Frame
	for acked, asked := false, false; !acked || !asked; {
		select {
		case s := <-tp.sent:
			switch {
			case s.f.Type == wire.TNoticeAck && !acked:
				acked = true
			case s.f.Type == wire.TPageReq && !asked:
				again, asked = s.f, true
			default:
				t.Fatalf("node sent %+v after the push, want its acknowledgement and a re-request", s.f)
			}
		case <-loaded:
			t.Fatal("the load completed on a dropped push")
		case <-time.After(10 * time.Second):
			t.Fatalf("after the push: acknowledged %v, asked again %v", acked, asked)
		}
	}
	if again.B != keepMark || again.C == stale.C {
		t.Fatalf("re-request %+v after the dropped push, want a fresh id with the keep mark alone", again)
	}
	n.handle(1, wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, C: stale.C})
	if n.validLocked(remotePage) {
		t.Fatal("the reply to the disowned request was installed")
	}
	n.handle(1, reply(again, map[int]int64{3: 30, 9: 90}))
	if got := <-loaded; got != 30 {
		t.Errorf("load after the re-request = %d, want the home's 30", got)
	}
}

// TestPushDroppedWhileDiffUnacked: a push is dropped while a diff of the
// page from this node is unacknowledged — it was read from a master
// that may not have the diff's words yet — and taken as a notice: the
// copy is invalidated and the refetch asks for the whole page.
func TestPushDroppedWhileDiffUnacked(t *testing.T) {
	n, tp := tapNode()
	p := keptCopy(t, n, tp, nil)
	p.Store(remotePage*apps.PageWords+5, 50)
	flushed := make(chan struct{})
	go func() { p.flush(); close(flushed) }()
	d := tp.next(t, wire.TDiff)
	if d.C != 0 {
		t.Fatalf("a kept copy was given up: %+v", d)
	}
	push(t, n, tp, []int32{5, 1}, []int64{0}) // copied at the home ahead of the diff
	if n.validLocked(remotePage) {
		t.Fatal("the push was installed with a diff of the page unacknowledged")
	}
	n.handle(1, wire.Frame{Type: wire.TFlushAck, A: d.A, B: d.B})
	<-flushed
	loaded := make(chan int64)
	go func() { loaded <- p.Load(remotePage*apps.PageWords + 5) }()
	req := tp.next(t, wire.TPageReq)
	if req.B != keepMark {
		t.Fatalf("refetch after a dropped push carried marks %d, want the keep mark alone", req.B)
	}
	n.handle(1, reply(req, map[int]int64{5: 50}))
	if got := <-loaded; got != 50 {
		t.Errorf("load after the refetch = %d, want the node's own 50", got)
	}
}

// TestPushDroppedOnInvalidCopy: a push to a copy a notice has
// invalidated is dropped, and the frame lacks its words: the refetch asks
// for the whole page.
func TestPushDroppedOnInvalidCopy(t *testing.T) {
	n, tp := tapNode()
	p := keptCopy(t, n, tp, map[int]int64{9: 90})
	notice(t, n, tp)
	push(t, n, tp, []int32{3, 1}, []int64{30})
	if n.validLocked(remotePage) {
		t.Fatal("a push made an invalidated copy valid")
	}
	loaded := make(chan int64)
	go func() { loaded <- p.Load(remotePage*apps.PageWords + 3) }()
	req := tp.next(t, wire.TPageReq)
	if req.B != keepMark {
		t.Fatalf("refetch after a dropped push carried marks %d, want the keep mark alone", req.B)
	}
	n.handle(1, reply(req, map[int]int64{3: 30, 9: 90}))
	if got := <-loaded; got != 30 {
		t.Errorf("load after the refetch = %d, want 30", got)
	}
}

// keptFetches plays rank r's first two fetches of homePage, both with
// the keep mark, which start r's mask.
func keptFetches(t *testing.T, n *node, tp *tap, r int) {
	t.Helper()
	wantFull(t, servedMarks(t, n, tp, r, keepMark), "first fetch")
	wantFull(t, servedMarks(t, n, tp, r, deltaMark|keepMark), "second fetch")
}

// releaseHome stores v to word off of homePage on p and releases it. It
// returns the one write notice the release sends, which must go to
// rank 1, after playing rank 1's acknowledgement; with quiet set, it
// wants the release to send nothing.
func releaseHome(t *testing.T, p *proc, tp *tap, off int, v int64, quiet bool) wire.Frame {
	t.Helper()
	p.Store(homePage*apps.PageWords+off, v)
	if quiet {
		p.flush()
		tp.quiet(t, "the release of a page nobody shares")
		return wire.Frame{}
	}
	flushed := make(chan struct{})
	go func() { p.flush(); close(flushed) }()
	to, wn := tp.nextTo(t, wire.TWriteNotice)
	if to != 1 {
		t.Fatalf("notice went to rank %d, want rank 1", to)
	}
	p.n.handle(1, wire.Frame{Type: wire.TNoticeAck, A: wn.A, B: wn.B})
	<-flushed
	return wn
}

// TestPushHomeKeepsRankRegisteredAndEmptiesMask: a home processor's
// release pushes a rank that keeps its copy the words its mask and the
// release mark, empties the mask and leaves the rank a sharer, so the
// next release pushes it again, with only what is newer, and a request
// finds nothing left to send.
func TestPushHomeKeepsRankRegisteredAndEmptiesMask(t *testing.T) {
	n, tp := tapNode()
	keptFetches(t, n, tp, 1)
	p := n.newProc(0)
	if wn := releaseHome(t, p, tp, 5, 50, false); !slices.Equal(wn.Offs, []int32{5, 1}) || !slices.Equal(wn.Words, []int64{50}) {
		t.Fatalf("first release sent %+v, want a push of word 5", wn)
	}
	if wn := releaseHome(t, p, tp, 6, 60, false); !slices.Equal(wn.Offs, []int32{6, 1}) || !slices.Equal(wn.Words, []int64{60}) {
		t.Fatalf("second release sent %+v, want a push of word 6 alone", wn)
	}
	wantRuns(t, servedMarks(t, n, tp, 1, deltaMark|keepMark), nil, nil, "fetch after two pushes")
}

// TestPushPlainNoticeUntrackedOrUnmarked: a rank whose requests never
// carried the keep mark gets a plain notice, and so does a rank that
// keeps its copy when the release is untracked — its own interval, or
// another local processor's, which set no bits — and each is struck
// from the sharer set, so the next release sends it nothing.
func TestPushPlainNoticeUntrackedOrUnmarked(t *testing.T) {
	t.Run("unmarked", func(t *testing.T) {
		n, tp := tapNode()
		fetchedTwice(t, n, tp, 1)
		p := n.newProc(0)
		if wn := releaseHome(t, p, tp, 5, 50, false); len(wn.Offs)+len(wn.Words) != 0 {
			t.Fatalf("release pushed %+v to a rank that never sent the keep mark", wn)
		}
		releaseHome(t, p, tp, 6, 60, true)
	})
	t.Run("untracked", func(t *testing.T) {
		n, tp := tapNode()
		p := n.newProc(0)
		p.Store(homePage*apps.PageWords+1, 10) // no mask exists: untracked
		keptFetches(t, n, tp, 1)
		if wn := releaseHome(t, p, tp, 5, 50, false); len(wn.Offs)+len(wn.Words) != 0 {
			t.Fatalf("an untracked release pushed %+v", wn)
		}
		releaseHome(t, p, tp, 6, 60, true)
	})
	t.Run("sibling untracked", func(t *testing.T) {
		n, tp := tapNode()
		p, q := n.newProc(0), n.newProc(1)
		q.Store(homePage*apps.PageWords+1, 10) // no mask exists: untracked
		keptFetches(t, n, tp, 1)
		if wn := releaseHome(t, p, tp, 5, 50, false); len(wn.Offs)+len(wn.Words) != 0 {
			t.Fatalf("a release beside an untracked interval pushed %+v", wn)
		}
		q.flush()
		tp.quiet(t, "the untracked release of a page nobody shares")
	})
}

// TestPushFromDiffAtThreeRanks: a diff from rank 2 pushes its runs to
// rank 1, which keeps its copy, and the diff is acknowledged once the
// push is; rank 1 stays a sharer, so the next diff pushes again.
func TestPushFromDiffAtThreeRanks(t *testing.T) {
	n, tp := tapCluster(3)
	keptFetches(t, n, tp, 1)
	for i, run := range []struct {
		offs  []int32
		words []int64
	}{{[]int32{4, 2}, []int64{40, 50}}, {[]int32{7, 1}, []int64{70}}} {
		token := int64(2<<32 | (i + 1))
		n.handle(2, wire.Frame{Type: wire.TDiff, A: homePage, B: token, Offs: run.offs, Words: run.words})
		to, wn := tp.nextTo(t, wire.TWriteNotice)
		if to != 1 || !slices.Equal(wn.Offs, run.offs) || !slices.Equal(wn.Words, run.words) {
			t.Fatalf("diff %d: rank %d sent %+v, want a push of the diff's runs to rank 1", i, to, wn)
		}
		tp.quiet(t, "a diff with its push unacknowledged")
		n.handle(1, wire.Frame{Type: wire.TNoticeAck, A: wn.A, B: wn.B})
		if to, ack := tp.nextTo(t, wire.TFlushAck); to != 2 || ack.B != token {
			t.Fatalf("diff %d: flush ack %+v to rank %d, want token %#x to rank 2", i, ack, to, token)
		}
	}
}

// TestPushReleaseDiffsFirstAndFenceSpan: a release sends its diffs and
// waits for them before it pushes or notices, and its EvFlushFence span
// covers every wait it makes — one whose only wait is its diffs
// included.
func TestPushReleaseDiffsFirstAndFenceSpan(t *testing.T) {
	n, tp := tapNode()
	n.tr = trace.New(trace.Config{Procs: n.cfg.PPN + 1})
	fetchRemote(t, n, tp, nil)
	fetchedTwice(t, n, tp, 1)
	p := n.newProc(0)

	p.Store(remotePage*apps.PageWords+5, 50)
	flushRemote(t, p, tp) // the diff phase alone

	p.Store(remotePage*apps.PageWords+6, 60)
	p.Store(homePage*apps.PageWords+6, 60)
	flushed := make(chan struct{})
	go func() { p.flush(); close(flushed) }()
	d := tp.next(t, wire.TDiff)
	tp.quiet(t, "a release with its diff unacknowledged")
	n.handle(1, wire.Frame{Type: wire.TFlushAck, A: d.A, B: d.B})
	to, wn := tp.nextTo(t, wire.TWriteNotice)
	if to != 1 || wn.A != homePage {
		t.Fatalf("second phase sent %+v to rank %d, want a notice of page %d to rank 1", wn, to, homePage)
	}
	n.handle(1, wire.Frame{Type: wire.TNoticeAck, A: wn.A, B: wn.B})
	<-flushed

	var pages []int64
	for _, e := range n.tr.Events() {
		if e.Kind == trace.EvFlushFence {
			pages = append(pages, e.Arg)
		}
	}
	if !slices.Equal(pages, []int64{1, 2}) {
		t.Errorf("fence spans counted pages %v, want [1 2]: one span per release, the diff-only one included", pages)
	}
}
