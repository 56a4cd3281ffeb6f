package mprun

import (
	"slices"
	"testing"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/transport/wire"
)

// The tests of lock homes ("Synchronization" in the package doc) and of
// the grant rule. In tapNode's cluster locks 0 and 2 are homed on the node
// under test, rank 0, and locks 1 and 3 on rank 1, which the test plays.
// The grantee side takes grants of lock 1 or 3 carrying runs of
// remotePage; the home side grants lock 0 with runs of homePage.

// lockRemote runs p.Lock(lock), a lock homed on rank 1, plays rank 1's
// grant carrying pages, offs and words, and returns once Lock has.
func lockRemote(t *testing.T, n *node, tp *tap, p *proc, lock int, pages, offs []int32, words []int64) {
	t.Helper()
	locked := make(chan struct{})
	go func() { p.Lock(lock); close(locked) }()
	to, req := tp.nextTo(t, wire.TLockReq)
	if to != 1 || req.A != int64(lock) || req.B != int64(p.gpid) {
		t.Fatalf("lock request %+v went to rank %d, want lock %d for processor %d to rank 1", req, to, lock, p.gpid)
	}
	n.handle(1, wire.Frame{Type: wire.TLockGrant, A: req.A, B: req.B, Pages: pages, Offs: offs, Words: words})
	<-locked
}

// TestGrantInstallsRunsOnSyncedFrame: a grant's runs go into a synced
// frame invalidated by a notice, which becomes a valid copy with no
// fetch; the frame stays synced, so the next refetch asks for runs.
func TestGrantInstallsRunsOnSyncedFrame(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, map[int]int64{3: 3, 9: 90})
	notice(t, n, tp)
	p := n.newProc(0)
	lockRemote(t, n, tp, p, 1, []int32{remotePage}, []int32{1, 3, 2}, []int64{30, 40})
	if !n.validLocked(remotePage) {
		t.Fatal("the grant's runs did not make the copy valid")
	}
	for off, want := range map[int]int64{3: 30, 4: 40, 9: 90} {
		if got := p.Load(base + off); got != want {
			t.Errorf("word %d = %d after the grant, want %d", off, got, want)
		}
	}
	tp.quiet(t, "loads of a page the grant brought")
	notice(t, n, tp)
	loaded := make(chan int64)
	go func() { loaded <- p.Load(base + 5) }()
	req := tp.next(t, wire.TPageReq)
	if req.B != 1 {
		t.Fatalf("refetch after an installed grant asked with B=%d, want 1", req.B)
	}
	n.handle(1, wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, C: req.C, Offs: []int32{5, 1}, Words: []int64{50}})
	if got := <-loaded; got != 50 {
		t.Errorf("word 5 = %d after the run reply, want 50", got)
	}
}

// TestGrantDropsRunsAndDisownsRequestInFlight: a grant finding a request
// for the page in flight drops its runs and disowns the request. The home
// has emptied the node's mask, so the reply to that request lacks the
// grant's words; the waiter asks again, for the whole page.
func TestGrantDropsRunsAndDisownsRequestInFlight(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, map[int]int64{9: 90})
	notice(t, n, tp)
	reader, locker := n.newProc(0), n.newProc(1)
	loaded := make(chan int64)
	go func() { loaded <- reader.Load(base + 3) }()
	stale := tp.next(t, wire.TPageReq)
	lockRemote(t, n, tp, locker, 1, []int32{remotePage}, []int32{1, 3, 1}, []int64{30})
	if n.validLocked(remotePage) {
		t.Fatal("the grant's runs were installed with a request in flight")
	}
	again := tp.next(t, wire.TPageReq)
	if again.B != 0 || again.C == stale.C {
		t.Fatalf("re-request %+v after the grant, want a fresh id asking for the whole page", again)
	}
	// The home's answer to the disowned request, from the emptied mask.
	n.handle(1, wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, C: stale.C})
	if n.validLocked(remotePage) {
		t.Fatal("the reply to the disowned request was installed")
	}
	n.handle(1, reply(again, map[int]int64{3: 30, 9: 90}))
	if got := <-loaded; got != 30 {
		t.Errorf("load after the re-request = %d, want the home's 30", got)
	}
}

// TestGrantDropsRunsUnderTwin: a grant's runs are dropped while the page
// has unflushed local writes — a home's mask may mark more words than
// changed, and here the runs carry the master's old word 5 — and the
// frame is no longer synced, so a later grant's runs are dropped too,
// even with the twin gone, and the refetch asks for the whole page.
func TestGrantDropsRunsUnderTwin(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, map[int]int64{9: 90})
	writer, locker := n.newProc(0), n.newProc(1)
	writer.Store(base+5, 50)
	notice(t, n, tp)
	lockRemote(t, n, tp, locker, 1, []int32{remotePage}, []int32{1, 3, 3}, []int64{30, 0, 0})
	if n.validLocked(remotePage) {
		t.Fatal("the grant's runs were installed under a twin")
	}
	if d := flushRemote(t, writer, tp); !slices.Equal(d.Offs, []int32{5, 1}) || !slices.Equal(d.Words, []int64{50}) {
		t.Fatalf("the writer's release sent runs %v words %v, want its word 5", d.Offs, d.Words)
	}
	lockRemote(t, n, tp, locker, 3, []int32{remotePage}, []int32{1, 4, 1}, []int64{40})
	if n.validLocked(remotePage) {
		t.Fatal("a later grant's runs were installed into a frame that dropped earlier ones")
	}
	loaded := make(chan int64)
	go func() { loaded <- locker.Load(base + 3) }()
	req := tp.next(t, wire.TPageReq)
	if req.B != 0 {
		t.Fatalf("refetch after dropped grants asked with B=%d, want 0", req.B)
	}
	n.handle(1, reply(req, map[int]int64{3: 30, 4: 40, 5: 50, 9: 90}))
	if got := <-loaded; got != 30 {
		t.Errorf("load after the refetch = %d, want 30", got)
	}
}

// TestGrantDropsRunsWhileDiffUnacked: a grant's runs are dropped while a
// diff of the page from this node is unacknowledged: they were read from
// a master that may not have its words yet.
func TestGrantDropsRunsWhileDiffUnacked(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, nil)
	writer, locker := n.newProc(0), n.newProc(1)
	writer.Store(base+5, 50)
	flushed := make(chan struct{})
	go func() { writer.flush(); close(flushed) }()
	d := tp.next(t, wire.TDiff)
	notice(t, n, tp)
	// Copied at the home ahead of the diff: word 5 is still 0 there.
	lockRemote(t, n, tp, locker, 1, []int32{remotePage}, []int32{1, 5, 1}, []int64{0})
	if n.validLocked(remotePage) {
		t.Fatal("the grant's runs were installed with a diff of the page unacknowledged")
	}
	n.handle(1, wire.Frame{Type: wire.TFlushAck, A: d.A, B: d.B})
	<-flushed
	loaded := make(chan int64)
	go func() { loaded <- locker.Load(base + 5) }()
	req := tp.next(t, wire.TPageReq)
	if req.B != 0 {
		t.Fatalf("refetch after a dropped grant asked with B=%d, want 0", req.B)
	}
	n.handle(1, reply(req, map[int]int64{5: 50}))
	if got := <-loaded; got != 50 {
		t.Errorf("load after the refetch = %d, want the node's own 50", got)
	}
}

// TestGrantCarriesHomeStoresAndNoticeFollows plays the home: a local
// processor takes and releases lock 0 with no frame, and its release
// names the page it stored to. A grant to rank 1 carries nothing while
// rank 1 has no mask; once it has one, the grant carries the home's
// stores as runs and makes rank 1 a sharer, so the next home store's
// release notices rank 1, behind the grant.
func TestGrantCarriesHomeStoresAndNoticeFollows(t *testing.T) {
	n, tp := tapNode()
	base := homePage * apps.PageWords
	p := n.newProc(0)
	p.Lock(0)
	p.Store(base+1, 10)
	p.Unlock(0)
	tp.quiet(t, "a local processor's lock and unlock of a lock homed here")
	grant := func() wire.Frame {
		t.Helper()
		n.handle(1, wire.Frame{Type: wire.TLockReq, A: 0, B: 2})
		to, g := tp.nextTo(t, wire.TLockGrant)
		if to != 1 || g.A != 0 || g.B != 2 {
			t.Fatalf("grant %+v to rank %d, want lock 0 for processor 2 on rank 1", g, to)
		}
		n.handle(1, wire.Frame{Type: wire.TLockRelease, A: 0, B: 2, Pages: []int32{homePage}})
		return g
	}
	if g := grant(); len(g.Pages)+len(g.Offs)+len(g.Words) != 0 {
		t.Fatalf("grant to a rank with no mask carried %+v", g)
	}

	fetchedTwice(t, n, tp, 1)
	released := make(chan struct{})
	go func() {
		p.Lock(0)
		p.Store(base+5, 50)
		p.Unlock(0)
		close(released)
	}()
	wn := tp.next(t, wire.TWriteNotice) // rank 1 shares the page
	n.handle(1, wire.Frame{Type: wire.TNoticeAck, A: wn.A, B: wn.B})
	<-released
	want := wire.Frame{Type: wire.TLockGrant, A: 0, B: 2, Pages: []int32{homePage}, Offs: []int32{1, 5, 1}, Words: []int64{50}}
	if g := grant(); !wire.Equal(g, want) {
		t.Fatalf("grant %+v, want %+v", g, want)
	}
	p.Store(base+6, 60)
	flushed := make(chan struct{})
	go func() { p.flush(); close(flushed) }()
	to, wn := tp.nextTo(t, wire.TWriteNotice)
	if to != 1 {
		t.Fatalf("the release after the grant noticed rank %d, want rank 1", to)
	}
	n.handle(1, wire.Frame{Type: wire.TNoticeAck, A: wn.A, B: wn.B})
	<-flushed
}

// TestGrantLockHomeQueues: the home grants its lock in arrival order,
// local and remote waiters alike, and a local waiter is granted in place.
func TestGrantLockHomeQueues(t *testing.T) {
	n, tp := tapNode()
	p, q := n.newProc(0), n.newProc(1)
	p.Lock(0)
	n.handle(1, wire.Frame{Type: wire.TLockReq, A: 0, B: 3})
	locked := make(chan struct{})
	go func() { q.Lock(0); close(locked) }()
	for queued := 0; queued < 2; time.Sleep(time.Millisecond) {
		n.mu.Lock()
		queued = len(n.lockQ[0])
		n.mu.Unlock()
	}
	p.Unlock(0)
	if g := tp.next(t, wire.TLockGrant); g.B != 3 {
		t.Fatalf("first grant went to processor %d, want the first waiter, 3", g.B)
	}
	select {
	case <-locked:
		t.Fatal("the local waiter got the lock while rank 1 held it")
	default:
	}
	n.handle(1, wire.Frame{Type: wire.TLockRelease, A: 0, B: 3})
	<-locked
	q.Unlock(0)
	tp.quiet(t, "the local hand-offs")
	n.mu.Lock()
	held := n.lockHeld[0]
	n.mu.Unlock()
	if held {
		t.Error("lock 0 is still held after its last release")
	}
}

// TestGrantReleaseFromBeforeAMove: a release sent before a barrier that
// has since moved one of its pages away lists that page against the old
// home table; the home takes it, and no grant carries the page.
func TestGrantReleaseFromBeforeAMove(t *testing.T) {
	n, tp := tapNode()
	n.handle(1, wire.Frame{Type: wire.TLockReq, A: 0, B: 2})
	tp.next(t, wire.TLockGrant)
	n.mu.Lock()
	n.barRel = 3
	n.mu.Unlock()
	n.handle(1, wire.Frame{Type: wire.TLockRelease, A: 0, B: 2, C: 2, Pages: []int32{remotePage}})
	n.handle(1, wire.Frame{Type: wire.TLockReq, A: 0, B: 2})
	if g := tp.next(t, wire.TLockGrant); len(g.Pages) != 0 {
		t.Fatalf("grant carried pages %v homed elsewhere", g.Pages)
	}
}
