package mprun

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/costs"
	"cashmere/internal/trace"
	"cashmere/internal/transport"
	"cashmere/internal/transport/shmchan"
	"cashmere/internal/transport/wire"
)

// runMesh executes app across nodes in-process goroutine "processes"
// connected by the shm messenger mesh, and fails on any node error.
// This is the full multi-process protocol — wire frames, homes, diffs,
// notices, coordinator — minus the TCP sockets, so it runs under the
// race detector in the ordinary test suite.
func runMesh(t *testing.T, app func() apps.App, nodes, ppn int) {
	t.Helper()
	mesh := shmchan.NewMesh(nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := Config{Rank: r, Nodes: nodes, PPN: ppn, Model: costs.Default()}
			errs[r] = Run(app(), cfg, mesh.Endpoint(r))
		}(r)
	}
	wg.Wait()
	for r := 0; r < nodes; r++ {
		mesh.Endpoint(r).Close()
	}
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

func TestSORBarriers(t *testing.T) {
	runMesh(t, func() apps.App { return apps.SmallSOR() }, 2, 2)
}

func TestTSPLocks(t *testing.T) {
	runMesh(t, func() apps.App { return apps.SmallTSP() }, 2, 2)
}

func TestGaussFlags(t *testing.T) {
	runMesh(t, func() apps.App { return apps.SmallGauss() }, 2, 2)
}

func TestLU(t *testing.T) {
	runMesh(t, func() apps.App { return apps.SmallLU() }, 2, 2)
}

// smallByName constructs a fresh small instance per rank: application
// values carry per-run state, so mesh ranks cannot share one.
var smallByName = map[string]func() apps.App{
	"SOR":    func() apps.App { return apps.SmallSOR() },
	"LU":     func() apps.App { return apps.SmallLU() },
	"Water":  func() apps.App { return apps.SmallWater() },
	"TSP":    func() apps.App { return apps.SmallTSP() },
	"Gauss":  func() apps.App { return apps.SmallGauss() },
	"Ilink":  func() apps.App { return apps.SmallIlink() },
	"Em3d":   func() apps.App { return apps.SmallEm3d() },
	"Barnes": func() apps.App { return apps.SmallBarnes() },
}

// TestFullSuiteTwoNodes runs all eight applications on a 2x1 mesh —
// every sharing pattern over the real protocol.
func TestFullSuiteTwoNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	for _, app := range apps.Small() {
		mk, ok := smallByName[app.Name()]
		if !ok {
			t.Fatalf("no small constructor for %s", app.Name())
		}
		t.Run(app.Name(), func(t *testing.T) {
			runMesh(t, mk, 2, 1)
		})
	}
}

// TestFullSuiteMatrix runs all eight applications at 2x2 and 3x2 —
// multi-processor nodes (intra-node sharing through one cache) and an
// uneven page distribution across three homes. Rank 0's Run verifies
// the final memory against the sequential reference, so every cell is
// a full end-to-end correctness check of the real concurrent protocol;
// under -race it doubles as a synchronization audit.
func TestFullSuiteMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	for _, shape := range []struct{ nodes, ppn int }{{2, 2}, {3, 2}} {
		for _, app := range apps.Small() {
			mk, ok := smallByName[app.Name()]
			if !ok {
				t.Fatalf("no small constructor for %s", app.Name())
			}
			t.Run(fmt.Sprintf("%s/%dx%d", app.Name(), shape.nodes, shape.ppn), func(t *testing.T) {
				shape := shape
				t.Parallel()
				runMesh(t, mk, shape.nodes, shape.ppn)
			})
		}
	}
}

func TestThreeNodesUnevenProcs(t *testing.T) {
	runMesh(t, func() apps.App { return apps.SmallSOR() }, 3, 2)
}

// TestTracedRunStructure runs SOR on a traced, frame-counted 2x2 mesh
// and checks the observability layer end to end: per-processor fault
// and synchronization spans, handler-ring diff events, flush fences,
// and transport counters whose request/reply totals must agree with
// the correlated latency histograms.
func TestTracedRunStructure(t *testing.T) {
	const nodes, ppn = 2, 2
	mesh := shmchan.NewMesh(nodes)
	trs := make([]*trace.Tracer, nodes)
	stats := make([]*transport.FrameStats, nodes)
	for r := 0; r < nodes; r++ {
		trs[r] = trace.New(trace.Config{Procs: ppn + 1})
		stats[r] = transport.NewFrameStats(nodes)
		mesh.Endpoint(r).SetStats(stats[r])
	}
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := Config{Rank: r, Nodes: nodes, PPN: ppn, Model: costs.Default(), Tracer: trs[r]}
			errs[r] = Run(apps.SmallSOR(), cfg, mesh.Endpoint(r))
		}(r)
	}
	wg.Wait()
	for r := 0; r < nodes; r++ {
		mesh.Endpoint(r).Close()
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	diffIns := 0
	for r := 0; r < nodes; r++ {
		evs := trs[r].Events()
		if len(evs) == 0 {
			t.Fatalf("rank %d recorded no events", r)
		}
		kindsByRing := map[int]map[trace.Kind]int{}
		for _, e := range evs {
			ring := int(e.Proc)
			if ring < 0 || ring > ppn {
				t.Fatalf("rank %d event on ring %d (valid: 0..%d): %+v", r, ring, ppn, e)
			}
			if kindsByRing[ring] == nil {
				kindsByRing[ring] = map[trace.Kind]int{}
			}
			kindsByRing[ring][e.Kind]++
			switch e.Kind {
			case trace.EvBarrier, trace.EvFlushFence, trace.EvReadFault, trace.EvWriteFault, trace.EvPageFetch:
				if e.Dur <= 0 {
					t.Errorf("rank %d %v event with non-positive duration: %+v", r, e.Kind, e)
				}
			}
		}
		// Every processor goroutine barriers at least once (the
		// run-ending barrier), on its own ring.
		for ring := 0; ring < ppn; ring++ {
			if kindsByRing[ring][trace.EvBarrier] == 0 {
				t.Errorf("rank %d ring %d: no barrier spans", r, ring)
			}
		}
		// SOR shares boundary rows, so someone faulted and fetched.
		var faults, fetches, fences int
		for ring := 0; ring < ppn; ring++ {
			faults += kindsByRing[ring][trace.EvReadFault] + kindsByRing[ring][trace.EvWriteFault]
			fetches += kindsByRing[ring][trace.EvPageFetch]
			fences += kindsByRing[ring][trace.EvFlushFence]
		}
		if faults == 0 || fetches == 0 || fences == 0 {
			t.Errorf("rank %d: faults=%d fetches=%d fences=%d, want all nonzero", r, faults, fetches, fences)
		}
		// Only handler kinds live on the handler ring. (Which ranks see
		// incoming diffs depends on the app's page layout, so diff-in
		// presence is asserted cluster-wide below.)
		diffIns += kindsByRing[ppn][trace.EvDiffIn]
		for k := range kindsByRing[ppn] {
			switch k {
			case trace.EvDiffIn, trace.EvNoticeSend, trace.EvNoticeApply:
			default:
				t.Errorf("rank %d: unexpected %v on the handler ring", r, k)
			}
		}

		// Transport counters: every page request carried a correlation
		// id and every reply echoes it, so the latency histogram count
		// must equal the number of requests sent.
		snap := stats[r].Snapshot()
		var reqs, replies int64
		for _, f := range snap.Sent {
			if f.Type == "page-req" {
				reqs += f.Frames
			}
		}
		for _, f := range snap.Recv {
			if f.Type == "page-reply" {
				replies += f.Frames
			}
		}
		if reqs == 0 {
			t.Errorf("rank %d sent no page requests", r)
		}
		if replies != reqs {
			t.Errorf("rank %d: %d page replies for %d requests", r, replies, reqs)
		}
		if snap.PageFetchNS.Count != reqs {
			t.Errorf("rank %d: %d fetch latency samples for %d requests", r, snap.PageFetchNS.Count, reqs)
		}
		for _, f := range append(append([]transport.FlowCount(nil), snap.Sent...), snap.Recv...) {
			if f.Bytes <= 0 || f.Frames <= 0 {
				t.Errorf("rank %d: non-positive flow %+v", r, f)
			}
		}
	}
	if diffIns == 0 {
		t.Error("no diff-in events on any rank's handler ring")
	}
}

// TestUntracedRunMintsCorrelationIDs pins the protocol detail the
// transport statistics depend on: page requests carry a nonzero
// Frame.C even when tracing is off, so attaching FrameStats alone
// (the -http path) still yields fetch latencies.
func TestUntracedRunMintsCorrelationIDs(t *testing.T) {
	const nodes = 2
	mesh := shmchan.NewMesh(nodes)
	stats := make([]*transport.FrameStats, nodes)
	for r := 0; r < nodes; r++ {
		stats[r] = transport.NewFrameStats(nodes)
		mesh.Endpoint(r).SetStats(stats[r])
	}
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := Config{Rank: r, Nodes: nodes, PPN: 1, Model: costs.Default()}
			errs[r] = Run(apps.SmallSOR(), cfg, mesh.Endpoint(r))
		}(r)
	}
	wg.Wait()
	for r := 0; r < nodes; r++ {
		mesh.Endpoint(r).Close()
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < nodes; r++ {
		snap := stats[r].Snapshot()
		var reqs int64
		for _, f := range snap.Sent {
			if f.Type == "page-req" {
				reqs += f.Frames
			}
		}
		if reqs == 0 {
			t.Fatalf("rank %d sent no page requests", r)
		}
		if snap.PageFetchNS.Count != reqs {
			t.Errorf("rank %d: %d fetch latency samples for %d requests (correlation ids missing without a tracer?)",
				r, snap.PageFetchNS.Count, reqs)
		}
	}
}

func TestSingleNode(t *testing.T) {
	runMesh(t, func() apps.App { return apps.SmallSOR() }, 1, 2)
}

func TestConfigValidation(t *testing.T) {
	mesh := shmchan.NewMesh(2)
	defer mesh.Endpoint(0).Close()
	defer mesh.Endpoint(1).Close()
	cfg := Config{Rank: 0, Nodes: 3, PPN: 1, Model: costs.Default()}
	if err := Run(apps.SmallSOR(), cfg, mesh.Endpoint(0)); err == nil {
		t.Error("Run accepted a node count disagreeing with the mesh")
	}
	cfg = Config{Rank: 1, Nodes: 2, PPN: 1, Model: costs.Default()}
	if err := Run(apps.SmallSOR(), cfg, mesh.Endpoint(0)); err == nil {
		t.Error("Run accepted a rank disagreeing with the mesh")
	}
	cfg = Config{Rank: 0, Nodes: 2, PPN: 0, Model: costs.Default()}
	if err := Run(apps.SmallSOR(), cfg, mesh.Endpoint(0)); err == nil {
		t.Error("Run accepted zero processors per node")
	}
}

// TestFullSizeGaussTwoByTwo is the configuration that exposed flush
// racing an in-flight page fetch: at two processors per node one
// processor's release could publish a page while another's request for
// it was outstanding, and the reply — copied at the home ahead of the
// diff — was installed as a valid copy no notice would ever
// invalidate. The small data sets finish too quickly to hit the
// window; the full-size one failed verification on every invocation.
func TestFullSizeGaussTwoByTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size Gauss in -short mode")
	}
	runMesh(t, func() apps.App { return apps.DefaultGauss() }, 2, 2)
}

// progApp is a hand-written program over the shared space: body runs on
// every processor, check inspects the final memory on rank 0.
type progApp struct {
	shape apps.Shape
	body  func(p apps.Proc)
	check func(m apps.Memory) error
}

func (a *progApp) Name() string              { return "Prog" }
func (a *progApp) DataSet() string           { return "test program" }
func (a *progApp) Shape() apps.Shape         { return a.shape }
func (a *progApp) Body(p apps.Proc)          { a.body(p) }
func (a *progApp) SeqTime(costs.Model) int64 { return 0 }
func (a *progApp) Verify(m apps.Memory) error {
	if a.check == nil {
		return nil
	}
	return a.check(m)
}

// TestDisjointWritersOfOnePageBothWin has two nodes write different
// words of one page between the same pair of barriers, every round:
// each diff carries only its writer's word, so the home merges both.
func TestDisjointWritersOfOnePageBothWin(t *testing.T) {
	const rounds = 20
	app := &progApp{shape: apps.Shape{SharedWords: apps.PageWords}}
	app.body = func(p apps.Proc) {
		for r := 1; r <= rounds; r++ {
			p.Store(p.ID(), int64(10*r+p.ID()))
			p.Barrier()
			for w := 0; w < p.NProcs(); w++ {
				if got, want := p.Load(w), int64(10*r+w); got != want {
					t.Errorf("round %d: processor %d reads word %d = %d, want %d", r, p.ID(), w, got, want)
				}
			}
			p.Barrier()
		}
	}
	runMesh(t, func() apps.App { return app }, 2, 1)
}

// TestStoresSurviveSiblingFlushes runs two processors of one node on
// the same pages: one releases over and over (each release scans the
// pages against their twins, drops the twins and invalidates the
// copies) while the other keeps storing to every remaining word and
// reading each store back. A store that fell between a flush's scan
// and its twin release, or a refetch that overtook the diff carrying
// it, would surface as a stale word. Run it under -race -cpu 1,2,4.
func TestStoresSurviveSiblingFlushes(t *testing.T) {
	const pages, releases = 2, 300
	var done atomic.Bool
	last := make([]int64, pages*apps.PageWords) // each word's final store
	app := &progApp{shape: apps.Shape{SharedWords: len(last), Locks: 1}}
	app.body = func(p apps.Proc) {
		if p.ID() == 0 {
			defer done.Store(true)
			for k := 1; k <= releases; k++ {
				a := k % pages * apps.PageWords
				p.Lock(0)
				p.Store(a, int64(k))
				last[a] = int64(k)
				p.Unlock(0)
			}
			return
		}
		for round := int64(1); !done.Load(); round++ {
			for a := range last {
				if a%apps.PageWords == 0 {
					continue // processor 0's word
				}
				v := round<<32 | int64(a)
				p.Store(a, v)
				last[a] = v
				if got := p.Load(a); got != v {
					t.Errorf("round %d: processor 1 stored %#x at %d and read back %#x", round, v, a, got)
					return
				}
			}
		}
	}
	app.check = func(m apps.Memory) error {
		for a, want := range last {
			if got := m.ReadShared(a); got != want {
				return fmt.Errorf("word %d = %#x, want its last store %#x", a, got, want)
			}
		}
		return nil
	}
	runMesh(t, func() apps.App { return app }, 1, 2)
}

// tap is a Messenger whose peers are the test itself: every frame the
// node sends lands on sent, and the test plays the other ranks by
// calling node.handle.
type tap struct {
	self, peers int
	sent        chan tapped
}

type tapped struct {
	to int
	f  wire.Frame
}

func (tp *tap) Self() int                        { return tp.self }
func (tp *tap) Peers() int                       { return tp.peers }
func (tp *tap) SetHandler(func(int, wire.Frame)) {}
func (tp *tap) Close() error                     { return nil }
func (tp *tap) Send(to int, f wire.Frame) error {
	tp.sent <- tapped{to, f}
	return nil
}

// next returns the next frame the node sent, which must be of type
// want.
func (tp *tap) next(t *testing.T, want wire.Type) wire.Frame {
	t.Helper()
	select {
	case s := <-tp.sent:
		if s.f.Type != want {
			t.Fatalf("node sent a %v frame, want %v", s.f.Type, want)
		}
		return s.f
	case <-time.After(10 * time.Second):
		t.Fatalf("node sent nothing, want a %v frame", want)
	}
	panic("unreachable")
}

// tapNode builds rank 0 of a two-rank, two-processor cluster over a
// tap, with two pages: page 0 homed here, page 1 on the absent rank 1.
func tapNode() (*node, *tap) {
	// Send runs under the node mutex and must not block; the scripted
	// tests never leave more than a few frames unread.
	tp := &tap{self: 0, peers: 2, sent: make(chan tapped, 16)}
	cfg := Config{Rank: 0, Nodes: 2, PPN: 2, Model: costs.Default()}
	return newNode(cfg, tp, apps.Shape{SharedWords: 2 * apps.PageWords}), tp
}

const remotePage = 1 // homed on rank 1 in tapNode's cluster

// reply is rank 1's answer to req carrying the given words of the page
// (the rest zero).
func reply(req wire.Frame, words map[int]int64) wire.Frame {
	data := make([]int64, apps.PageWords)
	for off, v := range words {
		data[off] = v
	}
	return wire.Frame{Type: wire.TPageReply, A: req.A, C: req.C, Words: data}
}

// fetchRemote makes remotePage valid on n with the given contents by
// loading from it and answering the request.
func fetchRemote(t *testing.T, n *node, tp *tap, words map[int]int64) {
	t.Helper()
	loaded := make(chan int64)
	go func() { loaded <- n.newProc(1).Load(remotePage * apps.PageWords) }()
	n.handle(1, reply(tp.next(t, wire.TPageReq), words))
	if got := <-loaded; got != words[0] {
		t.Fatalf("first load of the fetched page = %d, want %d", got, words[0])
	}
}

func (n *node) validLocked(page int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cache[page].valid
}

// TestStaleReplyAfterFlushIsDropped scripts the race deterministically:
// a request for a page is in flight when a sibling processor's release
// flushes the page; the reply to that request was copied at the home
// before the diff and must not be installed.
func TestStaleReplyAfterFlushIsDropped(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, nil)
	writer, reader := n.newProc(0), n.newProc(1)
	writer.Store(base+3, 30)
	// Another node's release invalidates the copy under the local write.
	n.handle(1, wire.Frame{Type: wire.TWriteNotice, A: remotePage, B: 7})
	tp.next(t, wire.TNoticeAck)

	loaded := make(chan int64)
	go func() { loaded <- reader.Load(base + 5) }()
	stale := tp.next(t, wire.TPageReq)

	flushed := make(chan struct{})
	go func() { n.flush(0); close(flushed) }()
	d := tp.next(t, wire.TDiff)
	if want := (wire.Frame{Type: wire.TDiff, A: remotePage, B: d.B, Offs: []int32{3, 1}, Words: []int64{30}}); !wire.Equal(d, want) {
		t.Fatalf("flush sent %+v, want %+v", d, want)
	}
	// The flush disowned the request in flight; the waiter asks again,
	// behind the diff.
	again := tp.next(t, wire.TPageReq)
	if again.C == stale.C || again.C == 0 {
		t.Fatalf("re-request carries id %#x after %#x, want a fresh nonzero id", again.C, stale.C)
	}

	n.handle(1, reply(stale, map[int]int64{5: 50})) // copied before the diff: no word 3
	if n.validLocked(remotePage) {
		t.Fatal("the reply to a request sent before the flush was installed as a valid copy")
	}
	n.handle(1, reply(again, map[int]int64{3: 30, 5: 55}))
	if got := <-loaded; got != 55 {
		t.Errorf("load after the re-request = %d, want the home's 55", got)
	}
	if got := reader.Load(base + 3); got != 30 {
		t.Errorf("the node's own flushed word reads %d after the refetch, want 30", got)
	}
	n.handle(1, wire.Frame{Type: wire.TFlushAck, A: remotePage, B: d.B})
	<-flushed
}

// TestSilentStoreSendsNoDiff: a store of the value already there leaves
// page and twin equal, so the release publishes nothing and the copy
// stays valid.
func TestSilentStoreSendsNoDiff(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, map[int]int64{4: 44})
	p := n.newProc(0)
	p.Store(base+4, 44)
	n.flush(0) // would block on the fence if it had sent a diff
	select {
	case s := <-tp.sent:
		t.Fatalf("a silent store made the release send a %v frame", s.f.Type)
	default:
	}
	if !n.validLocked(remotePage) {
		t.Error("a silent store cost the node its valid copy")
	}
	if n.cache[remotePage].twin != nil || len(n.dirty) != 0 {
		t.Error("the release left the page twinned")
	}
}

// TestRefetchUnderLocalWritesMerges: a page invalidated while it holds
// unflushed local writes is refetched under them — the local words
// stay, the remote ones arrive — and the next release sends only the
// local ones.
func TestRefetchUnderLocalWritesMerges(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, map[int]int64{9: 90})
	p := n.newProc(0)
	p.Store(base+3, 30)
	n.handle(1, wire.Frame{Type: wire.TWriteNotice, A: remotePage, B: 7})
	tp.next(t, wire.TNoticeAck)
	if n.validLocked(remotePage) {
		t.Fatal("write notice left the copy valid")
	}

	loaded := make(chan int64)
	go func() { loaded <- p.Load(base + 5) }()
	n.handle(1, reply(tp.next(t, wire.TPageReq), map[int]int64{5: 55, 9: 91}))
	if got := <-loaded; got != 55 {
		t.Errorf("remote word reads %d after the refetch, want 55", got)
	}
	for off, want := range map[int]int64{3: 30, 9: 91, 0: 0} {
		if got := p.Load(base + off); got != want {
			t.Errorf("word %d = %d after the merge, want %d", off, got, want)
		}
	}

	flushed := make(chan struct{})
	go func() { n.flush(0); close(flushed) }()
	d := tp.next(t, wire.TDiff)
	if want := (wire.Frame{Type: wire.TDiff, A: remotePage, B: d.B, Offs: []int32{3, 1}, Words: []int64{30}}); !wire.Equal(d, want) {
		t.Errorf("release sent %+v, want only the local word: %+v", d, want)
	}
	n.handle(1, wire.Frame{Type: wire.TFlushAck, A: remotePage, B: d.B})
	<-flushed
}

// TestMalformedFramesPanicAttributed feeds the handler frames no
// correct peer sends. Page numbers and runs index slices, so each must
// be refused with a message naming the frame's sender and content, not
// surface as an index or nil-pointer fault.
func TestMalformedFramesPanicAttributed(t *testing.T) {
	const pw = apps.PageWords
	for _, tc := range []struct {
		name string
		f    wire.Frame
		want string
	}{
		{"page request beyond the space", wire.Frame{Type: wire.TPageReq, A: 99},
			"rank 0 asked for page 99, homed on rank 1 (page-req frame from rank 1, 2 pages)"},
		{"page request for a negative page", wire.Frame{Type: wire.TPageReq, A: -2},
			"rank 0 asked for page -2, homed on rank 0"},
		{"page request to the wrong home", wire.Frame{Type: wire.TPageReq, A: remotePage},
			"rank 0 asked for page 1, homed on rank 1"},
		{"diff to the wrong home", wire.Frame{Type: wire.TDiff, A: remotePage, Offs: []int32{0, 1}, Words: []int64{1}},
			"rank 0 asked for page 1, homed on rank 1 (diff frame from rank 1"},
		{"diff beyond the space", wire.Frame{Type: wire.TDiff, A: 4, Offs: []int32{0, 1}, Words: []int64{1}},
			"rank 0 asked for page 4, homed on rank 0"},
		{"diff run past the page end", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{pw - 1, 2}, Words: []int64{1, 2}},
			"malformed diff of page 0 from rank 1"},
		{"diff run at a negative offset", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{-1, 1}, Words: []int64{1}},
			"malformed diff of page 0 from rank 1"},
		{"diff runs short of the payload", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{0, 1}, Words: []int64{1, 2}},
			"malformed diff of page 0 from rank 1"},
		{"diff runs beyond the payload", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{0, 2, 8, 2}, Words: []int64{1, 2, 3}},
			"malformed diff of page 0 from rank 1"},
		{"diff with half a run", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{0, 1, 2}, Words: []int64{1}},
			"malformed diff of page 0 from rank 1"},
		{"page reply beyond the space", wire.Frame{Type: wire.TPageReply, A: 2, Words: make([]int64, pw)},
			"received a page-reply frame from rank 1 for page 2 of 2"},
		{"short page reply", wire.Frame{Type: wire.TPageReply, A: remotePage, Words: make([]int64, 3)},
			"received a 3-word reply for page 1 from rank 1, want 1024 words"},
		{"write notice beyond the space", wire.Frame{Type: wire.TWriteNotice, A: -1},
			"received a write-notice frame from rank 1 for page -1 of 2"},
		{"notice ack nobody waits for", wire.Frame{Type: wire.TNoticeAck, A: 0, B: 5},
			"received a notice ack from rank 1 for page 0, token 0x5, which awaits none"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := tapNode()
			defer func() {
				msg, ok := recover().(string)
				if !ok || !strings.HasPrefix(msg, "mprun: ") || !strings.Contains(msg, tc.want) {
					t.Errorf("handle(%+v) panicked with %q, want an mprun message containing %q", tc.f.Type, msg, tc.want)
				}
			}()
			n.handle(1, tc.f)
			t.Errorf("handle accepted the frame")
		})
	}
}
