package mprun

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/costs"
	"cashmere/internal/trace"
	"cashmere/internal/transport/wire"
)

// The tests of delta replies ("Delta replies" in the package doc). The
// home side plays requests from the other ranks into tapNode's rank 0,
// which homes page 0; the requester side plays the home of page 1.

var reqSeq atomic.Int64

// served plays rank r's request for homePage, asking for the words its
// frame lacks when synced, and returns the home's reply to it.
func served(t *testing.T, n *node, tp *tap, r int, synced bool) wire.Frame {
	t.Helper()
	var marks int64
	if synced {
		marks = deltaMark
	}
	return servedMarks(t, n, tp, r, marks)
}

// servedMarks is served with the request's marks given.
func servedMarks(t *testing.T, n *node, tp *tap, r int, marks int64) wire.Frame {
	t.Helper()
	c := int64(r)<<32 | reqSeq.Add(1)
	n.handle(r, wire.Frame{Type: wire.TPageReq, A: homePage, B: marks, C: c})
	to, f := tp.nextTo(t, wire.TPageReply)
	if to != r || f.C != c {
		t.Fatalf("reply %#x went to rank %d, want the echo of %#x to rank %d", f.C, to, c, r)
	}
	return f
}

// wantFull fails unless f is a reply carrying the whole page.
func wantFull(t *testing.T, f wire.Frame, what string) {
	t.Helper()
	if f.B != 0 || len(f.Offs) != 0 || len(f.Words) != apps.PageWords {
		t.Fatalf("%s: reply B=%d with %d runs over %d words, want the whole page", what, f.B, len(f.Offs)/2, len(f.Words))
	}
}

// wantRuns fails unless f is a run reply carrying exactly offs and words.
func wantRuns(t *testing.T, f wire.Frame, offs []int32, words []int64, what string) {
	t.Helper()
	want := wire.Frame{Type: wire.TPageReply, A: f.A, B: 1, C: f.C, Offs: offs, Words: words}
	if !wire.Equal(f, want) {
		t.Fatalf("%s: reply B=%d runs %v words %v, want runs %v words %v", what, f.B, f.Offs, f.Words, offs, words)
	}
}

// fetchedTwice plays rank r's first two fetches of homePage, which are
// answered in full: the first is only recorded, the second starts r's
// mask.
func fetchedTwice(t *testing.T, n *node, tp *tap, r int) {
	t.Helper()
	wantFull(t, served(t, n, tp, r, false), "first fetch")
	wantFull(t, served(t, n, tp, r, true), "second fetch")
}

// flushHome runs p's release of homePage, which must send one write
// notice, to rank 1, and plays rank 1's acknowledgement.
func flushHome(t *testing.T, p *proc, tp *tap) {
	t.Helper()
	flushed := make(chan struct{})
	go func() { p.flush(); close(flushed) }()
	to, wn := tp.nextTo(t, wire.TWriteNotice)
	if to != 1 {
		t.Fatalf("notice went to rank %d, want rank 1", to)
	}
	p.n.handle(1, wire.Frame{Type: wire.TNoticeAck, A: wn.A, B: wn.B})
	<-flushed
}

// TestDeltaThirdFetchAfterHomeStore: once rank 1 has fetched the page
// twice, its third fetch carries exactly the words home processors
// stored since: a released processor's, through rank 1's mask, and an
// unreleased one's, scalar and row, through its store bitmap.
func TestDeltaThirdFetchAfterHomeStore(t *testing.T) {
	n, tp := tapNode()
	base := homePage * apps.PageWords
	fetchedTwice(t, n, tp, 1)
	p, q := n.newProc(0), n.newProc(1)
	p.Store(base+2, 20)
	p.Store(base+3, 30)
	flushHome(t, p, tp)
	q.Store(base+7, 70)
	q.StoreFRow(base+10, []float64{1, 2, 3})
	row := func(v float64) int64 { return int64(math.Float64bits(v)) }
	wantRuns(t, served(t, n, tp, 1, true), []int32{2, 2, 7, 1, 10, 3},
		[]int64{20, 30, 70, row(1), row(2), row(3)}, "third fetch")
	// The reply emptied rank 1's mask; q's bitmap still marks its words
	// until its release, which is harmless: rank 1 has them.
	wantRuns(t, served(t, n, tp, 1, true), []int32{7, 1, 10, 3},
		[]int64{70, row(1), row(2), row(3)}, "fourth fetch")
	flushHome(t, q, tp)
	wantRuns(t, served(t, n, tp, 1, true), []int32{7, 1, 10, 3},
		[]int64{70, row(1), row(2), row(3)}, "fetch after the release")
	wantRuns(t, served(t, n, tp, 1, true), nil, nil, "fetch with nothing new")
}

// TestDeltaThirdFetchAfterThirdRankDiff: a diff from rank 2 goes into
// rank 1's mask; rank 1's own diff does not, its frame having the words.
func TestDeltaThirdFetchAfterThirdRankDiff(t *testing.T) {
	n, tp := tapCluster(3)
	fetchedTwice(t, n, tp, 1)
	n.handle(2, wire.Frame{Type: wire.TDiff, A: homePage, B: 2<<32 | 1, Offs: []int32{4, 2}, Words: []int64{40, 50}})
	wn := tp.next(t, wire.TWriteNotice)
	n.handle(1, wire.Frame{Type: wire.TNoticeAck, A: wn.A, B: wn.B})
	tp.next(t, wire.TFlushAck)
	n.handle(1, wire.Frame{Type: wire.TDiff, A: homePage, B: 1<<32 | 1, Offs: []int32{9, 1}, Words: []int64{90}})
	tp.next(t, wire.TFlushAck)
	wantRuns(t, served(t, n, tp, 1, true), []int32{4, 2}, []int64{40, 50}, "third fetch")
	// Rank 2 has fetched once only: no mask, so its fetches stay full.
	wantFull(t, served(t, n, tp, 2, true), "rank 2's first fetch")
}

// TestDeltaUntrackedIntervalRepliesFull: a home processor whose write
// fault found no mask sets no bits, so while its interval is open every
// reply is full, and its release makes every mask unknown — the next
// reply is full too — after which replies carry runs again.
func TestDeltaUntrackedIntervalRepliesFull(t *testing.T) {
	n, tp := tapNode()
	base := homePage * apps.PageWords
	p := n.newProc(0)
	p.Store(base+1, 10) // no mask exists: untracked
	fetchedTwice(t, n, tp, 1)
	p.Store(base+2, 20)
	wantFull(t, served(t, n, tp, 1, true), "fetch during the untracked interval")
	flushHome(t, p, tp)
	wantFull(t, served(t, n, tp, 1, true), "fetch after the untracked release")
	p.Store(base+3, 30) // a mask exists now: tracked
	wantRuns(t, served(t, n, tp, 1, true), []int32{3, 1}, []int64{30}, "fetch during a tracked interval")
}

// TestDeltaRunsNoSmallerThanPageSentFull: a reply whose runs and their
// (start, count) headers would take a page or more goes out whole.
func TestDeltaRunsNoSmallerThanPageSentFull(t *testing.T) {
	n, tp := tapNode()
	base := homePage * apps.PageWords
	fetchedTwice(t, n, tp, 1)
	p := n.newProc(0)
	var offs []int32
	var words []int64
	// 511 single-word runs: 511 words and 511 headers, one word short of
	// a page.
	for off := 0; off < apps.PageWords-2; off += 2 {
		p.Store(base+off, int64(off+1))
		offs, words = append(offs, int32(off), 1), append(words, int64(off+1))
	}
	wantRuns(t, served(t, n, tp, 1, true), offs, words, "511 runs")
	p.Store(base+apps.PageWords-2, 7) // the 512th: a page's worth
	if f := served(t, n, tp, 1, true); f.B != 0 || len(f.Words) != apps.PageWords || f.Words[apps.PageWords-2] != 7 || f.Words[2] != 3 {
		t.Fatalf("512 runs: reply B=%d over %d words, want the whole page", f.B, len(f.Words))
	}
}

// TestDeltaDisownedReplyAsksFull: a request whose reply the node will
// drop — disowned by a flush of the invalid page — leaves the frame
// without what the home thinks it sent, so the re-request asks for the
// whole page (B=0); once that is accepted, requests ask for runs again.
func TestDeltaDisownedReplyAsksFull(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	writer, reader := n.newProc(0), n.newProc(1)
	loaded := make(chan int64)
	go func() { loaded <- reader.Load(base) }()
	first := tp.next(t, wire.TPageReq)
	if first.B != 0 {
		t.Fatalf("first request B=%d with no frame, want 0", first.B)
	}
	n.handle(1, reply(first, nil))
	<-loaded
	writer.Store(base+3, 30)
	notice(t, n, tp)

	go func() { loaded <- reader.Load(base + 5) }()
	stale := tp.next(t, wire.TPageReq)
	if stale.B != 1 {
		t.Fatalf("refetch into a frame in step asked with B=%d, want 1", stale.B)
	}
	flushed := make(chan struct{})
	go func() { writer.flush(); close(flushed) }()
	d := tp.next(t, wire.TDiff)
	again := tp.next(t, wire.TPageReq)
	if again.B != 0 {
		t.Fatalf("re-request after a disown asked with B=%d, want 0", again.B)
	}
	n.handle(1, wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, C: stale.C, Offs: []int32{5, 1}, Words: []int64{50}})
	n.handle(1, reply(again, map[int]int64{3: 30, 5: 55}))
	if got := <-loaded; got != 55 {
		t.Errorf("load after the re-request = %d, want 55", got)
	}
	n.handle(1, wire.Frame{Type: wire.TFlushAck, A: remotePage, B: d.B})
	<-flushed

	notice(t, n, tp)
	go func() { loaded <- reader.Load(base + 5) }()
	next := tp.next(t, wire.TPageReq)
	if next.B != 1 {
		t.Fatalf("request after an accepted full reply asked with B=%d, want 1", next.B)
	}
	n.handle(1, wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, C: next.C})
	if got := <-loaded; got != 55 {
		t.Errorf("load after an empty run reply = %d, want 55", got)
	}
}

// TestDeltaRunReplyUnderTwinKeepsLocalWords: a run reply into a frame
// with unflushed local writes is diff.Incoming over the runs: a word
// stored locally keeps its value, the other run words arrive, words
// outside the runs stay, and the twin takes every run word, so the next
// release sends only the local word.
func TestDeltaRunReplyUnderTwinKeepsLocalWords(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, map[int]int64{9: 90})
	p := n.newProc(0)
	p.Store(base+3, 30)
	notice(t, n, tp)
	loaded := make(chan int64)
	go func() { loaded <- p.Load(base + 5) }()
	req := tp.next(t, wire.TPageReq)
	n.handle(1, wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, C: req.C, Offs: []int32{3, 3}, Words: []int64{33, 44, 55}})
	if got := <-loaded; got != 55 {
		t.Errorf("run word 5 reads %d, want 55", got)
	}
	for off, want := range map[int]int64{3: 30, 4: 44, 9: 90} {
		if got := p.Load(base + off); got != want {
			t.Errorf("word %d = %d after the run reply, want %d", off, got, want)
		}
	}
	d := flushRemote(t, p, tp)
	if !slices.Equal(d.Offs, []int32{3, 1}) || !slices.Equal(d.Words, []int64{30}) {
		t.Errorf("release after the run reply sent runs %v words %v, want only the local word 3", d.Offs, d.Words)
	}
}

// TestDeltaAfterPlacementMoveRepliesFull: a page's new home starts with
// no masks, so it answers its first two requests in full whatever they
// ask, and runs only from the third.
func TestDeltaAfterPlacementMoveRepliesFull(t *testing.T) {
	n, tp := tapNode()
	procs := [2]*proc{n.newProc(0), n.newProc(1)}
	placing(n)
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, map[int]int64{9: 90})
	procs[0].Store(base+3, 30)
	flushRemote(t, procs[0], tp)
	if _, rel := tapBarrier(t, n, tp, procs, wire.Frame{}); len(rel.Pages) != 1 {
		t.Fatalf("release %+v, want page 1 moved here", rel)
	}
	ask := func(seq int64) wire.Frame {
		n.handle(1, wire.Frame{Type: wire.TPageReq, A: remotePage, B: 1, C: 1<<32 | seq})
		return tp.next(t, wire.TPageReply)
	}
	for seq := range int64(2) {
		if f := ask(seq + 1); f.B != 0 || len(f.Words) != apps.PageWords || f.Words[3] != 30 {
			t.Fatalf("request %d to the new home: reply B=%d over %d words, want the whole page", seq+1, f.B, len(f.Words))
		}
	}
	procs[1].Store(base+4, 40)
	if f := ask(3); !wire.Equal(f, wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, C: 1<<32 | 3, Offs: []int32{4, 1}, Words: []int64{40}}) {
		t.Fatalf("third request to the new home: reply %+v, want word 4 as a run", f)
	}
}

// TestDeltaFetchTracesBytesCarried: a fetch's page-fetch span records
// the bytes its reply carried: a page for a full reply, the runs and
// their headers for a run reply.
func TestDeltaFetchTracesBytesCarried(t *testing.T) {
	tp := &tap{self: 0, peers: 2, sent: make(chan tapped, 16)}
	tr := trace.New(trace.Config{Procs: 3})
	cfg := Config{Rank: 0, Nodes: 2, PPN: 2, Model: costs.Default(), Tracer: tr}
	n := newNode(cfg, tp, apps.Shape{SharedWords: 2 * apps.PageWords})
	p := n.newProc(0)
	base := remotePage * apps.PageWords
	loadRemote(t, n, tp, p, 0, nil)
	notice(t, n, tp)
	loaded := make(chan int64)
	go func() { loaded <- p.Load(base + 5) }()
	req := tp.next(t, wire.TPageReq)
	n.handle(1, wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, C: req.C, Offs: []int32{5, 2}, Words: []int64{50, 60}})
	<-loaded
	var got []int64
	for _, e := range tr.Events() {
		if e.Kind == trace.EvPageFetch {
			got = append(got, e.Arg)
		}
	}
	if want := []int64{apps.PageWords * 8, 2*8 + 2*4}; !slices.Equal(got, want) {
		t.Errorf("page-fetch spans record %v bytes, want %v: a page, then two words and one run header", got, want)
	}
}

// deltaWorld is two real nodes over taps, rank 0 homing page 0 and rank
// 1 caching it, with rank 2 played by the test: its diffs and requests
// go to the home, and notices to it are acknowledged at once. Every
// frame is delivered by settle, on the test goroutine.
type deltaWorld struct {
	t     *testing.T
	nodes [2]*node
	taps  [2]*tap
	// runs and full count the replies rank 1 accepted, by form.
	runs, full int
	seq        int64
}

func newDeltaWorld(t *testing.T) *deltaWorld {
	w := &deltaWorld{t: t}
	for r := range w.nodes {
		// Send runs under the node mutex and must not block: a flush
		// sends a notice per sharer and the pump may be a few frames
		// behind, far fewer than this.
		w.taps[r] = &tap{self: r, peers: 3, sent: make(chan tapped, 256)}
		cfg := Config{Rank: r, Nodes: 3, PPN: 2, Model: costs.Default()}
		w.nodes[r] = newNode(cfg, w.taps[r], apps.Shape{SharedWords: 3 * apps.PageWords})
	}
	return w
}

// deliver hands one frame rank from sent to its destination.
func (w *deltaWorld) deliver(from int, s tapped) {
	switch s.to {
	case 2:
		if s.f.Type == wire.TWriteNotice {
			w.nodes[0].handle(2, wire.Frame{Type: wire.TNoticeAck, A: s.f.A, B: s.f.B})
		}
	case 1:
		b := w.nodes[1]
		b.mu.Lock()
		accepted := s.f.Type == wire.TPageReply && b.cache[0].reqID == s.f.C
		b.mu.Unlock()
		b.handle(from, s.f)
		if accepted {
			w.check(s.f)
		}
	default:
		w.nodes[0].handle(from, s.f)
	}
}

// check holds rank 1's frame, just after it accepted reply f, to the
// master outside the words rank 1 has stored and not flushed.
func (w *deltaWorld) check(f wire.Frame) {
	w.t.Helper()
	if f.B == 1 {
		w.runs++
	} else {
		w.full++
	}
	b, master := w.nodes[1], w.nodes[0].home[0].data
	b.mu.Lock()
	defer b.mu.Unlock()
	cp := &b.cache[0]
	for i := range master {
		v := atomic.LoadInt64(&cp.data[i])
		if cp.twin != nil && v != cp.twin[i] {
			continue
		}
		if m := atomic.LoadInt64(&master[i]); v != m {
			w.t.Fatalf("after a reply B=%d with runs %v, rank 1's word %d = %d, master %d", f.B, f.Offs, i, v, m)
		}
	}
}

// settle delivers both nodes' frames until every channel in wait is
// closed and nothing is left in flight.
func (w *deltaWorld) settle(wait ...chan struct{}) {
	w.t.Helper()
	for {
		select {
		case s := <-w.taps[0].sent:
			w.deliver(0, s)
			continue
		case s := <-w.taps[1].sent:
			w.deliver(1, s)
			continue
		default:
		}
		if len(wait) == 0 {
			return
		}
		select {
		case s := <-w.taps[0].sent:
			w.deliver(0, s)
		case s := <-w.taps[1].sent:
			w.deliver(1, s)
		case <-wait[0]:
			wait = wait[1:]
		case <-time.After(10 * time.Second):
			w.t.Fatal("the nodes stopped with an operation unfinished")
		}
	}
}

// run performs op on a goroutine and settles.
func (w *deltaWorld) run(op func()) {
	done := make(chan struct{})
	go func() { op(); close(done) }()
	w.settle(done)
}

// take returns rank r's next frame, which must be of type want, without
// delivering it.
func (w *deltaWorld) take(r int, want wire.Type) tapped {
	w.t.Helper()
	select {
	case s := <-w.taps[r].sent:
		if s.f.Type != want {
			w.t.Fatalf("rank %d sent a %v frame, want %v", r, s.f.Type, want)
		}
		return s
	case <-time.After(10 * time.Second):
		w.t.Fatalf("rank %d sent nothing, want a %v frame", r, want)
	}
	panic("unreachable")
}

// TestDeltaRandomized drives random home stores and releases, rank 1
// loads, stores and releases, rank 2 diffs and fetches, and disowning
// races through two real nodes, and after every reply rank 1 accepts
// holds its frame to the master outside its own unflushed words.
func TestDeltaRandomized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newDeltaWorld(t)
		home, remote := w.nodes[0], w.nodes[1]
		hp := [2]*proc{home.newProc(0), home.newProc(1)}
		rp := [2]*proc{remote.newProc(0), remote.newProc(1)}
		word := func() int {
			// Mostly a few hot words, so stores overlap and runs merge.
			if rng.Intn(2) == 0 {
				return rng.Intn(16)
			}
			return rng.Intn(apps.PageWords)
		}
		for op := 0; op < 500; op++ {
			v := rng.Int63n(1000)
			switch k := rng.Intn(10); k {
			case 0, 1:
				hp[k].Store(word(), v)
			case 2:
				off := word()
				row := make([]float64, 1+rng.Intn(min(8, apps.PageWords-off)))
				for i := range row {
					row[i] = float64(v + int64(i))
				}
				hp[rng.Intn(2)].StoreFRow(off, row)
			case 3:
				w.run(hp[rng.Intn(2)].flush)
			case 4:
				w.seq++
				start := rng.Intn(apps.PageWords - 4)
				home.handle(2, wire.Frame{Type: wire.TDiff, A: 0, B: 2<<32 | w.seq,
					Offs: []int32{int32(start), 2}, Words: []int64{v, v + 1}})
				w.settle()
			case 5:
				w.seq++
				home.handle(2, wire.Frame{Type: wire.TPageReq, A: 0, C: 2<<32 | w.seq})
				w.settle()
			case 6:
				w.run(func() { rp[rng.Intn(2)].Load(word()) })
			case 7:
				j, off := rng.Intn(2), word()
				w.run(func() { rp[j].Store(off, v) })
			case 8:
				w.run(rp[rng.Intn(2)].flush)
			case 9:
				// The disowning race: rank 1's copy is invalid under
				// processor 0's unflushed store when processor 1 asks for
				// it and processor 0 releases.
				// A value no earlier store used, so the release has a diff
				// to send.
				w.run(func() { rp[0].Store(word(), -1-int64(op)) })
				w.seq++
				home.handle(2, wire.Frame{Type: wire.TDiff, A: 0, B: 2<<32 | w.seq, Offs: []int32{int32(word()), 1}, Words: []int64{v}})
				w.settle()
				if remote.validLocked(0) {
					continue // rank 1 was not a sharer, so nothing invalidated its copy
				}
				loaded, flushed := make(chan struct{}), make(chan struct{})
				go func() { rp[1].Load(word()); close(loaded) }()
				req := w.take(1, wire.TPageReq)
				go func() { rp[0].flush(); close(flushed) }()
				diff := w.take(1, wire.TDiff)
				w.deliver(1, req)
				w.deliver(1, diff)
				w.settle(loaded, flushed)
			}
		}
		for _, p := range append(hp[:], rp[:]...) {
			w.run(p.flush)
		}
		t.Logf("seed %d: rank 1 accepted %d run replies and %d full ones", seed, w.runs, w.full)
		if w.runs == 0 || w.full == 0 {
			t.Errorf("seed %d: rank 1 accepted %d run replies and %d full ones, want some of each", seed, w.runs, w.full)
		}
	}
}
