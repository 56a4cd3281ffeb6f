package mprun

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/apps/proctest"
	"cashmere/internal/costs"
	"cashmere/internal/metrics"
	"cashmere/internal/trace"
	"cashmere/internal/transport"
	"cashmere/internal/transport/shmchan"
	"cashmere/internal/transport/wire"
)

// runMesh, the apps.Proc contract suite's engine here, executes a fresh
// program from mk on each of nodes in-process goroutine "processes"
// connected by the shm messenger mesh, with pageWords-word pages (0 =
// the applications' default), and returns the ranks' errors. This is
// the full multi-process protocol minus the TCP sockets, so it runs
// under the race detector in the ordinary test suite.
func runMesh(_ *testing.T, mk func() apps.App, nodes, ppn, pageWords int) error {
	return meshRun(shmchan.NewMesh(nodes), mk, ppn, pageWords, make([]*trace.Tracer, nodes))
}

// meshRun is runMesh on a given mesh, with rank r traced by trs[r] (nil
// for none). It closes the mesh's endpoints.
func meshRun(mesh *shmchan.Mesh, mk func() apps.App, ppn, pageWords int, trs []*trace.Tracer) error {
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for r := range trs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := Config{Rank: r, Nodes: len(trs), PPN: ppn, PageWords: pageWords, Model: costs.Default(), Tracer: trs[r]}
			if err := Run(mk(), cfg, mesh.Endpoint(r)); err != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
			}
		}(r)
	}
	wg.Wait()
	for r := range trs {
		mesh.Endpoint(r).Close()
	}
	return errors.Join(errs...)
}

// onMeshApp runs a fresh mk program per rank at nodes×ppn with the
// applications' default page size, and fails t with any rank's error.
func onMeshApp(t *testing.T, mk func() apps.App, nodes, ppn int) {
	if err := runMesh(t, mk, nodes, ppn, 0); err != nil {
		t.Error(err)
	}
}

// One application per synchronization style, at the default page size
// (the suite's app matrix runs 64-word pages), and an uneven page
// distribution across three homes.
func TestSORBarriers(t *testing.T) { onMeshApp(t, func() apps.App { return apps.SmallSOR() }, 2, 2) }
func TestTSPLocks(t *testing.T)    { onMeshApp(t, func() apps.App { return apps.SmallTSP() }, 2, 2) }
func TestGaussFlags(t *testing.T)  { onMeshApp(t, func() apps.App { return apps.SmallGauss() }, 2, 2) }
func TestLU(t *testing.T)          { onMeshApp(t, func() apps.App { return apps.SmallLU() }, 2, 2) }
func TestThreeNodesUnevenProcs(t *testing.T) {
	onMeshApp(t, func() apps.App { return apps.SmallSOR() }, 3, 2)
}

// onMesh runs each case at each nodes×ppn shape over the shm mesh, in
// parallel subtests named case/shape. Rank 0's Run verifies the final
// memory, so every cell is an end-to-end check of the real concurrent
// protocol; under -race it doubles as a synchronization audit.
func onMesh(t *testing.T, cases []proctest.Case, shapes ...[2]int) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			for _, s := range shapes {
				t.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(t *testing.T) {
					t.Parallel()
					c.Run(t, runMesh, s[0], s[1])
				})
			}
		})
	}
}

// meshShapes: one node, two and four single-processor nodes,
// intra-node sharing through one cache, and three uneven homes.
var meshShapes = [][2]int{{1, 2}, {2, 1}, {2, 2}, {3, 2}, {4, 1}}

// TestProcSuite runs the apps.Proc contract suite's litmus and random
// data-race-free programs at every mesh shape.
func TestProcSuite(t *testing.T) { onMesh(t, proctest.Litmus, meshShapes...) }

// TestBandsPlacement runs the suite's Bands program traced at 2x2 and
// reads the moves off rank 0's handler ring. Processors 0 and 1 own pages
// 0-3, processors 2 and 3 pages 4-7, so the band pages homed on the other
// rank (1, 3, 4, 6) move to their owners' rank at the first barrier;
// page 8, which ranks 0 and 1 both write then, stays; and page 9, first
// written by processor 0 three intervals later, moves to rank 0 then.
func TestBandsPlacement(t *testing.T) {
	var ranks []trace.RankTrack
	proctest.Bands.Run(t, func(t *testing.T, mk func() apps.App, nodes, ppn, pageWords int) error {
		ranks, _ = tracedMesh(t, mk, nodes, ppn, pageWords)
		return nil
	}, 2, 2)
	moved, at := map[int32]int64{}, map[int32]int64{}
	for _, e := range ranks[0].Events {
		if e.Kind == trace.EvHomeMigrate {
			moved[e.Page], at[e.Page] = e.Arg2, e.VT
		}
	}
	if want := map[int32]int64{1: 0, 3: 0, 4: 1, 6: 1, 9: 0}; !maps.Equal(moved, want) {
		t.Fatalf("pages moved to %v, want %v", moved, want)
	}
	for _, pg := range []int32{1, 3, 4, 6} {
		if at[pg] >= at[9] {
			t.Errorf("band page %d moved after the late page", pg)
		}
	}
}

// TestFullSuiteMatrix runs the suite's eight small applications at every
// mesh shape but 2x1, which TestFullSuiteTwoNodes runs: the shape of the
// repository benchmark's mp_* workloads.
func TestFullSuiteMatrix(t *testing.T) {
	onMesh(t, proctest.Apps, meshShapes[0], meshShapes[2], meshShapes[3], meshShapes[4])
}

func TestFullSuiteTwoNodes(t *testing.T) { onMesh(t, proctest.Apps, meshShapes[1]) }

// selfFlows returns the page and diff traffic rank r's snapshot shows it
// exchanging with itself. A rank works on the pages it homes in place,
// so there must be none.
func selfFlows(r int, snap transport.MsgSnapshot) []transport.FlowCount {
	var self []transport.FlowCount
	for _, f := range append(append([]transport.FlowCount(nil), snap.Sent...), snap.Recv...) {
		switch f.Type {
		case "page-req", "page-reply", "diff", "flush-ack", "write-notice", "notice-ack":
			if f.Peer == r {
				self = append(self, f)
			}
		}
	}
	return self
}

// tracedMesh is runMesh with a tracer and frame counters on every rank:
// it returns what each rank recorded, positioned for trace.Merge as the
// tcp launcher's parent positions its children's reports (the ranks
// share this process's clock, so a rank's offset is its tracer's start).
func tracedMesh(t *testing.T, app func() apps.App, nodes, ppn, pageWords int) ([]trace.RankTrack, []*transport.FrameStats) {
	t.Helper()
	mesh := shmchan.NewMesh(nodes)
	trs := make([]*trace.Tracer, nodes)
	ranks := make([]trace.RankTrack, nodes)
	stats := make([]*transport.FrameStats, nodes)
	for r := 0; r < nodes; r++ {
		ranks[r] = trace.RankTrack{Rank: r, Procs: ppn, OffsetNS: time.Now().UnixNano()}
		trs[r] = trace.New(trace.Config{Procs: ppn + 1})
		stats[r] = transport.NewFrameStats(nodes)
		mesh.Endpoint(r).SetStats(stats[r])
	}
	if err := meshRun(mesh, app, ppn, pageWords, trs); err != nil {
		t.Fatal(err)
	}
	for r := range ranks {
		ranks[r].Events, ranks[r].Dropped = trs[r].Events(), trs[r].Dropped()
	}
	return ranks, stats
}

// TestTracedRunStructure runs SOR on a traced, frame-counted 2x2 mesh
// and checks the observability layer end to end: per-processor fault
// and synchronization spans, handler-ring diff and home-migrate events,
// flush fences, and transport counters whose request/reply totals must
// agree with the correlated latency histograms. Pages are one grid row
// each. Processor 0 initializes the grid, so it fetches and diffs the
// rows rank 1 homes; in Warmup each rank fetches the rows of its band
// homed on the other, and at its end those rows move to the rank that
// writes them. Every rank faults, but only ever on a page homed
// elsewhere at the time, which each rank's home-migrate events say.
func TestTracedRunStructure(t *testing.T) {
	const nodes, ppn = 2, 2
	ranks, stats := tracedMesh(t, func() apps.App { return apps.SmallSOR() }, nodes, ppn, 64)

	var moves [nodes]int
	for r := 0; r < nodes; r++ {
		evs := slices.Clone(ranks[r].Events)
		if len(evs) == 0 {
			t.Fatalf("rank %d recorded no events", r)
		}
		// The rings in one order, so that each event sees the home table
		// the moves before it left.
		slices.SortStableFunc(evs, func(a, b trace.Event) int { return cmp.Compare(a.VT, b.VT) })
		homes := map[int32]int64{}
		homeOf := func(pg int32) int64 {
			if h, ok := homes[pg]; ok {
				return h
			}
			return int64(pg) % nodes
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
			if e.Kind == trace.EvHomeMigrate {
				if e.Arg != homeOf(e.Page) || e.Arg2 == e.Arg || e.Arg2 < 0 || e.Arg2 >= nodes {
					t.Errorf("rank %d moved page %d from rank %d to rank %d; its home was rank %d", r, e.Page, e.Arg, e.Arg2, homeOf(e.Page))
				}
				homes[e.Page] = e.Arg2
				moves[r]++
			}
			homed := homeOf(e.Page) == int64(r)
			switch e.Kind {
			case trace.EvBarrier, trace.EvFlushFence, trace.EvReadFault, trace.EvPageFetch:
				if e.Dur <= 0 {
					t.Errorf("rank %d %v event with non-positive duration: %+v", r, e.Kind, e)
				}
			case trace.EvWriteFault:
				// A span when the fault fetched, which a home never does;
				// an instant for a first store to a copy already valid.
				if e.Dur < 0 || e.Dur > 0 && homed {
					t.Errorf("rank %d write fault of %d ns on page %d (homed here: %v): %+v", r, e.Dur, e.Page, homed, e)
				}
			}
			switch e.Kind {
			case trace.EvReadFault, trace.EvPageFetch, trace.EvDiffOut:
				if homed {
					t.Errorf("rank %d fetched or diffed page %d, which it homes: %+v", r, e.Page, e)
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
		// Each band has rows homed on the other rank, so someone here
		// faulted, fetched, and waited on a release's fence.
		var faults, fetches, fences int
		for ring := 0; ring < ppn; ring++ {
			faults += kindsByRing[ring][trace.EvReadFault] + kindsByRing[ring][trace.EvWriteFault]
			fetches += kindsByRing[ring][trace.EvPageFetch]
			fences += kindsByRing[ring][trace.EvFlushFence]
		}
		if faults == 0 || fetches == 0 || fences == 0 {
			t.Errorf("rank %d: faults=%d fetches=%d fences=%d, want all nonzero", r, faults, fetches, fences)
		}
		// Rank 1 homes rows processor 0 initializes, and only handler
		// kinds live on the handler ring.
		if r == 1 && kindsByRing[ppn][trace.EvDiffIn] == 0 {
			t.Errorf("rank %d: no diff-in events on the handler ring", r)
		}
		for k := range kindsByRing[ppn] {
			switch k {
			case trace.EvDiffIn, trace.EvNoticeSend, trace.EvNoticeApply, trace.EvHomeMigrate:
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
		if self := selfFlows(r, snap); len(self) > 0 {
			t.Errorf("rank %d moved pages it homes through the mesh: %+v", r, self)
		}
	}
	// Every rank applies every move, and each band has rows to move.
	if moves[0] == 0 || moves[0] != moves[1] {
		t.Errorf("ranks applied %v moves, want the same nonzero number", moves)
	}
}

// TestUntracedRunMintsCorrelationIDs pins the protocol detail the
// transport statistics depend on: page requests carry a nonzero
// Frame.C even when tracing is off, so attaching FrameStats alone
// (the -http path) still yields fetch latencies. Pages are one grid
// row each, so each rank has rows to fetch from the other.
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
			cfg := Config{Rank: r, Nodes: nodes, PPN: 1, PageWords: 64, Model: costs.Default()}
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
	onMeshApp(t, func() apps.App { return apps.DefaultGauss() }, 2, 2)
}

// TestStoresSurviveSiblingFlushes runs two processors of one node on
// the same pages: one releases over and over while the other keeps
// storing, without the node mutex, to every remaining word and reading
// each store back. On pages homed elsewhere each release scans the pages
// against their twins and sends the diffs, and the twin rule is what
// keeps a store that lands after a scan from being lost: the streaming
// processor is on the page's writer count, so the twin stays, updated
// with exactly what was sent; a twin dropped, left as it was, or updated
// from the frame surfaces as a stale or missing word at the home. In the
// third case a processor of the home writes word 1 of the same pages
// under the lock, so its releases' notices invalidate the copy, and the
// refetches merge under the twin, while the stores stream. On pages
// homed here the stores go to the master in place and a release has
// nothing to scan. Run it under -race -cpu 1,2,4.
func TestStoresSurviveSiblingFlushes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nodes  int
		remote bool // processor 2, on the pages' home, writes word 1
	}{
		{"homed elsewhere", 2, false}, // rank 0's processors on rank 1's pages
		{"homed here", 1, false},
		{"invalidated by the home", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pages = 2
			// The test's pages are the last of each group of tc.nodes.
			addr := func(pg, off int) int { return (pg*tc.nodes+tc.nodes-1)*apps.PageWords + off }
			var lockers atomic.Int32 // still releasing
			lockers.Store(1)
			releases := 300 // in all
			streamFrom := 1 // words below belong to the lockers
			if tc.remote {
				lockers.Store(2)
				releases /= 2
				streamFrom = 2
			}
			last := make([]int64, pages*tc.nodes*apps.PageWords) // each word's final store
			app := &proctest.Prog{Space: apps.Shape{SharedWords: len(last), Locks: 1}}
			locker := func(p apps.Proc, off int) {
				defer lockers.Add(-1)
				for k := 1; k <= releases; k++ {
					a := addr(k%pages, off)
					p.Lock(0)
					p.Store(a, int64(k))
					last[a] = int64(k)
					p.Unlock(0)
				}
			}
			app.Code = func(p apps.Proc) {
				switch p.ID() {
				case 0:
					locker(p, 0)
				case 2:
					if tc.remote {
						locker(p, 1)
					}
				case 1:
					for round := int64(1); lockers.Load() > 0; round++ {
						for pg := 0; pg < pages; pg++ {
							for off := streamFrom; off < apps.PageWords; off++ {
								a := addr(pg, off)
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
				}
			}
			app.Check = func(m apps.Memory) error {
				for a, want := range last {
					if got := m.ReadShared(a); got != want {
						return fmt.Errorf("word %d = %#x, want its last store %#x", a, got, want)
					}
				}
				return nil
			}
			if err := runMesh(t, func() apps.App { return app }, tc.nodes, 2, 0); err != nil {
				t.Error(err)
			}
		})
	}
}

// tap is a Messenger whose peers are the test itself: every frame the
// node sends lands on sent, and the test plays the other ranks by
// calling node.handle. Send only borrows a frame's slices — a page
// reply's are a pooled buffer, a diff's the run scratch — so the tap
// keeps copies, taken like a real mesh's before Send returns.
type tap struct {
	self, peers int
	sent        chan tapped
	// hold, when set, is called with each frame before it lands on sent;
	// a test blocks in it to stop the node mid-send.
	hold func(wire.Frame)
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
	if tp.hold != nil {
		tp.hold(f)
	}
	f.Pages, f.Offs, f.Words = slices.Clone(f.Pages), slices.Clone(f.Offs), slices.Clone(f.Words)
	tp.sent <- tapped{to, f}
	return nil
}

// next returns the next frame the node sent, which must be of type
// want.
func (tp *tap) next(t *testing.T, want wire.Type) wire.Frame {
	t.Helper()
	_, f := tp.nextTo(t, want)
	return f
}

// nextTo is next that also returns the rank the frame went to.
func (tp *tap) nextTo(t *testing.T, want wire.Type) (int, wire.Frame) {
	t.Helper()
	select {
	case s := <-tp.sent:
		if s.f.Type != want {
			t.Fatalf("node sent a %v frame to rank %d, want %v", s.f.Type, s.to, want)
		}
		return s.to, s.f
	case <-time.After(10 * time.Second):
		t.Fatalf("node sent nothing, want a %v frame", want)
	}
	panic("unreachable")
}

// quiet fails the test if the node has sent a frame nobody read.
func (tp *tap) quiet(t *testing.T, when string) {
	t.Helper()
	select {
	case s := <-tp.sent:
		t.Fatalf("%s: node sent a %v frame to rank %d, want none", when, s.f.Type, s.to)
	default:
	}
}

// tapNode builds rank 0 of a two-rank, two-processor cluster over a
// tap, with two pages: page 0 homed here, page 1 on the absent rank 1.
func tapNode() (*node, *tap) { return tapCluster(2) }

// tapCluster is tapNode among the given number of ranks, with one page
// homed on each.
func tapCluster(ranks int) (*node, *tap) { return tapAt(0, ranks) }

// tapAt is tapCluster with the node under test at the given rank, and
// tapLocks locks, lock i homed on rank i % ranks.
func tapAt(rank, ranks int) (*node, *tap) {
	// Send runs under the node mutex and must not block; the scripted
	// tests never leave more than a few frames unread.
	tp := &tap{self: rank, peers: ranks, sent: make(chan tapped, 16)}
	cfg := Config{Rank: rank, Nodes: ranks, PPN: 2, Model: costs.Default()}
	return newNode(cfg, tp, apps.Shape{SharedWords: ranks * apps.PageWords, Locks: tapLocks}), tp
}

const tapLocks = 4

const (
	homePage   = 0 // homed on the node under test in tapNode's cluster
	remotePage = 1 // homed on rank 1
)

// reply is rank 1's answer to req carrying the given words of the page
// (the rest zero).
func reply(req wire.Frame, words map[int]int64) wire.Frame {
	data := make([]int64, apps.PageWords)
	for off, v := range words {
		data[off] = v
	}
	return wire.Frame{Type: wire.TPageReply, A: req.A, C: req.C, Words: data}
}

// loadRemote loads word off of remotePage on p, which must miss, plays
// rank 1's reply carrying the given words, and returns what the load
// saw.
func loadRemote(t *testing.T, n *node, tp *tap, p *proc, off int, words map[int]int64) int64 {
	t.Helper()
	loaded := make(chan int64)
	go func() { loaded <- p.Load(remotePage*apps.PageWords + off) }()
	n.handle(1, reply(tp.next(t, wire.TPageReq), words))
	return <-loaded
}

// fetchRemote makes remotePage valid on n with the given contents.
func fetchRemote(t *testing.T, n *node, tp *tap, words map[int]int64) {
	t.Helper()
	if got := loadRemote(t, n, tp, n.newProc(1), 0, words); got != words[0] {
		t.Fatalf("first load of the fetched page = %d, want %d", got, words[0])
	}
}

func (n *node) validLocked(page int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cache[page].valid
}

// flushRemote runs a release on p that must publish remotePage as one
// diff, plays the home's acknowledgement, and returns the diff.
func flushRemote(t *testing.T, p *proc, tp *tap) wire.Frame {
	t.Helper()
	flushed := make(chan struct{})
	go func() { p.flush(); close(flushed) }()
	d := tp.next(t, wire.TDiff)
	p.n.handle(1, wire.Frame{Type: wire.TFlushAck, A: d.A, B: d.B})
	<-flushed
	return d
}

// notice plays the home invalidating n's copy of remotePage on behalf
// of some other rank's release.
func notice(t *testing.T, n *node, tp *tap) {
	t.Helper()
	n.handle(1, wire.Frame{Type: wire.TWriteNotice, A: remotePage, B: 7})
	tp.next(t, wire.TNoticeAck)
}

// TestStaleReplyAfterFlushIsDropped scripts the race deterministically:
// a page holding unflushed writes has been invalidated and a request
// for it is in flight when a sibling processor's release flushes it,
// twin and all; the reply to that request was copied at the home before
// the diff and must not be installed over the flushed words.
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
	go func() { writer.flush(); close(flushed) }()
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
	p.flush() // would block on the fence if it had sent a diff
	select {
	case s := <-tp.sent:
		t.Fatalf("a silent store made the release send a %v frame", s.f.Type)
	default:
	}
	if !n.validLocked(remotePage) {
		t.Error("a silent store cost the node its valid copy")
	}
	if n.cache[remotePage].twin != nil || len(p.dirty) != 0 {
		t.Error("the release left the page twinned")
	}
}

// TestRefetchUnderLocalWritesMerges: a page invalidated while it holds
// unflushed local writes is refetched under them — the local words
// stay, the remote ones arrive — and the next release sends only the
// local ones. The notice is also the node's first evidence that others
// write the page between its releases, so that release gives the copy
// up.
func TestRefetchUnderLocalWritesMerges(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, map[int]int64{9: 90})
	p := n.newProc(0)
	p.Store(base+3, 30)
	notice(t, n, tp)
	if n.validLocked(remotePage) {
		t.Fatal("write notice left the copy valid")
	}

	if got := loadRemote(t, n, tp, p, 5, map[int]int64{5: 55, 9: 91}); got != 55 {
		t.Errorf("remote word reads %d after the refetch, want 55", got)
	}
	for off, want := range map[int]int64{3: 30, 9: 91, 0: 0} {
		if got := p.Load(base + off); got != want {
			t.Errorf("word %d = %d after the merge, want %d", off, got, want)
		}
	}

	d := flushRemote(t, p, tp)
	if want := (wire.Frame{Type: wire.TDiff, A: remotePage, B: d.B, C: 1, Offs: []int32{3, 1}, Words: []int64{30}}); !wire.Equal(d, want) {
		t.Errorf("release sent %+v, want only the local word and the give-up mark: %+v", d, want)
	}
	if n.validLocked(remotePage) {
		t.Error("the copy is still valid after a diff that told the home it was given up")
	}
}

// TestHomeStoreFlush: a processor of a page's home stores to the master
// in place, with no fetch, twin or diff. Its release sends nothing
// while nobody else holds a copy; once a rank has fetched one, the
// release is a write notice to that rank and completes on its ack.
func TestHomeStoreFlush(t *testing.T) {
	n, tp := tapNode()
	p := n.newProc(0)
	p.Store(homePage*apps.PageWords+2, 20)
	if got := p.Load(homePage*apps.PageWords + 2); got != 20 {
		t.Fatalf("home store reads back %d, want 20", got)
	}
	p.flush() // would block on the fence if it had sent anything
	tp.quiet(t, "home store and flush with no sharer")
	if n.cache[homePage].twin != nil || len(p.dirty) != 0 {
		t.Error("the release left the home page twinned or dirty")
	}

	n.handle(1, wire.Frame{Type: wire.TPageReq, A: homePage, C: 1<<32 | 1})
	if r := tp.next(t, wire.TPageReply); r.Words[2] != 20 || r.C != 1<<32|1 {
		t.Fatalf("reply carries word 2 = %d under id %#x, want the home's 20 under the request's id", r.Words[2], r.C)
	}
	p.Store(homePage*apps.PageWords+2, 21)
	flushed := make(chan struct{})
	go func() { p.flush(); close(flushed) }()
	wn := tp.next(t, wire.TWriteNotice)
	if wn.A != homePage {
		t.Fatalf("notice names page %d, want %d", wn.A, homePage)
	}
	select {
	case <-flushed:
		t.Fatal("the release completed before the sharer acknowledged the notice")
	case <-time.After(20 * time.Millisecond):
	}
	n.handle(1, wire.Frame{Type: wire.TNoticeAck, A: wn.A, B: wn.B})
	<-flushed
	tp.quiet(t, "home flush with one sharer, after the notice")

	// The notice cost the sharer its copy and its registration.
	p.Store(homePage*apps.PageWords+2, 22)
	p.flush()
	tp.quiet(t, "home flush after the only sharer was invalidated")
}

// TestReleaseWaitsForNoticesAlreadyOut: rank 2's diff sends rank 1 a
// notice and strikes it from the sharer set. Until rank 1 acknowledges,
// its copy is still in use and lacks whatever is released next as well,
// so a home processor's release and a second diff, neither of which has
// anyone left to notify, complete only with that acknowledgement.
func TestReleaseWaitsForNoticesAlreadyOut(t *testing.T) {
	n, tp := tapCluster(3)
	p := n.newProc(0)
	n.handle(1, wire.Frame{Type: wire.TPageReq, A: homePage, C: 1<<32 | 1})
	tp.next(t, wire.TPageReply)
	n.handle(2, wire.Frame{Type: wire.TDiff, A: homePage, B: 2<<32 | 1, Offs: []int32{1, 1}, Words: []int64{10}})
	wn := tp.next(t, wire.TWriteNotice)

	p.Store(homePage*apps.PageWords+2, 20)
	flushed := make(chan struct{})
	go func() { p.flush(); close(flushed) }()
	n.handle(2, wire.Frame{Type: wire.TDiff, A: homePage, B: 2<<32 | 2, Offs: []int32{3, 1}, Words: []int64{30}})
	select {
	case <-flushed:
		t.Fatal("a home release completed while a notice for the page was unacknowledged")
	case s := <-tp.sent:
		t.Fatalf("node sent a %v frame to rank %d while a notice for the page was unacknowledged", s.f.Type, s.to)
	case <-time.After(20 * time.Millisecond):
	}

	n.handle(1, wire.Frame{Type: wire.TNoticeAck, A: wn.A, B: wn.B})
	<-flushed
	for _, token := range []int64{2<<32 | 1, 2<<32 | 2} {
		select {
		case s := <-tp.sent:
			if want := (wire.Frame{Type: wire.TFlushAck, A: homePage, B: token}); s.to != 2 || !wire.Equal(s.f, want) {
				t.Fatalf("node sent %+v to rank %d, want %+v to rank 2", s.f, s.to, want)
			}
		default:
			t.Fatalf("no flush ack for token %#x after the last notice ack", token)
		}
	}
	tp.quiet(t, "after every release was acknowledged")
}

// TestReplyLeavesBeforeLaterStoresNotice scripts the ordering hazard of
// home processors publishing their own stores: the handler copies the
// page for a requester, and a home processor's store and release follow
// at once. The release's notice must not reach the requester ahead of
// the copy — it would be ignored there, and the copy installed with
// nothing left to invalidate it. The tap stalls the reply in Send; while
// it is stalled no notice may appear.
func TestReplyLeavesBeforeLaterStoresNotice(t *testing.T) {
	n, tp := tapNode()
	p := n.newProc(0)
	stalled, release := make(chan struct{}), make(chan struct{})
	tp.hold = func(f wire.Frame) {
		if f.Type == wire.TPageReply {
			close(stalled)
			<-release
		}
	}
	handled := make(chan struct{})
	go func() {
		n.handle(1, wire.Frame{Type: wire.TPageReq, A: homePage, C: 1<<32 | 1})
		close(handled)
	}()
	<-stalled
	flushed := make(chan struct{})
	go func() {
		p.Store(homePage*apps.PageWords+4, 40)
		p.flush()
		close(flushed)
	}()
	select {
	case s := <-tp.sent:
		t.Fatalf("a %v frame left the home while the reply for an older copy was still on its way out", s.f.Type)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-handled
	if r := tp.next(t, wire.TPageReply); r.Words[4] != 0 {
		t.Fatalf("reply carries word 4 = %d, want the copy taken before the store", r.Words[4])
	}
	wn := tp.next(t, wire.TWriteNotice)
	n.handle(1, wire.Frame{Type: wire.TNoticeAck, A: wn.A, B: wn.B})
	<-flushed
}

// TestReplyCarriesMasterAsOfSend: home processors store to the master
// without the node mutex, so the home sends a snapshot taken under it,
// in a buffer borrowed from the twin pool. What the requester gets is
// the page as it stood when the handler sent it — every earlier home
// store in it and no later one, though the tap stalls Send and the
// master takes two more stores before the transport reads the frame.
func TestReplyCarriesMasterAsOfSend(t *testing.T) {
	n, tp := tapNode()
	p := n.newProc(0)
	base := homePage * apps.PageWords
	p.Store(base+2, 20)
	stalled, release := make(chan struct{}), make(chan struct{})
	tp.hold = func(f wire.Frame) {
		if f.Type == wire.TPageReply {
			close(stalled)
			<-release
		}
	}
	handled := make(chan struct{})
	go func() {
		n.handle(1, wire.Frame{Type: wire.TPageReq, A: homePage, C: 1<<32 | 1})
		close(handled)
	}()
	<-stalled
	p.Store(base+2, 21) // hits: the handler holds the mutex
	p.Store(base+3, 31)
	close(release)
	<-handled
	r := tp.next(t, wire.TPageReply)
	if len(r.Words) != apps.PageWords || r.Words[2] != 20 || r.Words[3] != 0 {
		t.Fatalf("reply carries %d words, word 2 = %d, word 3 = %d; want the page as of the send: %d words, 20, 0",
			len(r.Words), r.Words[2], r.Words[3], apps.PageWords)
	}
	if got := p.Load(base + 2); got != 21 {
		t.Errorf("master word 2 = %d after the later store, want 21", got)
	}
	// The buffer is back in the pool, and the next reply borrows it again.
	tp.hold = nil
	n.handle(1, wire.Frame{Type: wire.TPageReq, A: homePage, C: 1<<32 | 2})
	if r := tp.next(t, wire.TPageReply); r.Words[2] != 21 || r.Words[3] != 31 {
		t.Errorf("second reply carries words 2, 3 = %d, %d, want 21, 31", r.Words[2], r.Words[3])
	}
	if len(n.twins) != 1 {
		t.Errorf("two replies left %d buffers in the twin pool, want the one both borrowed", len(n.twins))
	}
}

// TestFlushReusesRunScratchBetweenDiffs: one release publishing two
// pages builds both diffs in the same scratch. Each goes out whole
// before the next is built over it.
func TestFlushReusesRunScratchBetweenDiffs(t *testing.T) {
	tp := &tap{self: 0, peers: 2, sent: make(chan tapped, 16)}
	cfg := Config{Rank: 0, Nodes: 2, PPN: 2, Model: costs.Default()}
	n := newNode(cfg, tp, apps.Shape{SharedWords: 4 * apps.PageWords})
	p := n.newProc(0)
	for _, page := range []int{1, 3} { // both homed on rank 1
		stored := make(chan struct{})
		go func() {
			p.Store(page*apps.PageWords+page, int64(10*page))
			p.Store(page*apps.PageWords+page+1, int64(10*page+1))
			close(stored)
		}()
		n.handle(1, reply(tp.next(t, wire.TPageReq), nil))
		<-stored
	}
	flushed := make(chan struct{})
	go func() { p.flush(); close(flushed) }()
	first, second := tp.next(t, wire.TDiff), tp.next(t, wire.TDiff)
	for _, tc := range []struct {
		got  wire.Frame
		page int32
	}{{first, 1}, {second, 3}} {
		want := wire.Frame{Type: wire.TDiff, A: int64(tc.page), B: tc.got.B,
			Offs: []int32{tc.page, 2}, Words: []int64{int64(10 * tc.page), int64(10*tc.page + 1)}}
		if !wire.Equal(tc.got, want) {
			t.Errorf("release sent %+v, want %+v", tc.got, want)
		}
	}
	for _, d := range []wire.Frame{first, second} {
		n.handle(1, wire.Frame{Type: wire.TFlushAck, A: d.A, B: d.B})
	}
	<-flushed
}

// TestKeptCopyServesLoadsUntilNoticed: a release leaves the flusher's
// copy valid — the next load is a hit, with no page request — and the
// node registered, so another rank's diff of the page reaches it as a
// notice and only then costs a refetch.
func TestKeptCopyServesLoadsUntilNoticed(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, map[int]int64{9: 90})
	p := n.newProc(0)
	p.Store(base+3, 30)
	epoch := n.epoch.Load()
	d := flushRemote(t, p, tp)
	if want := (wire.Frame{Type: wire.TDiff, A: remotePage, B: d.B, Offs: []int32{3, 1}, Words: []int64{30}}); !wire.Equal(d, want) {
		t.Fatalf("release sent %+v, want %+v", d, want)
	}
	if !n.validLocked(remotePage) || n.epoch.Load() != epoch {
		t.Fatal("the release invalidated the flusher's own copy")
	}
	if n.cache[remotePage].twin != nil {
		t.Error("the release left the page twinned")
	}
	for off, want := range map[int]int64{3: 30, 9: 90} {
		if got := p.Load(base + off); got != want {
			t.Errorf("word %d = %d from the kept copy, want %d", off, got, want)
		}
	}
	tp.quiet(t, "loads from a kept copy")

	// A third rank's diff reached the home, which still lists us.
	notice(t, n, tp)
	if got := loadRemote(t, n, tp, p, 9, map[int]int64{3: 30, 9: 91}); got != 91 {
		t.Errorf("load after the notice = %d, want the home's 91", got)
	}
}

// TestRemoteDiffVisibleToHomeReader: a home processor that has read a
// page keeps its frame for lock-free hits, and the frame is the master
// copy, so a remote diff applied by the handler is visible to its very
// next load — no invalidation, no epoch bump, no frame but the ack.
func TestRemoteDiffVisibleToHomeReader(t *testing.T) {
	n, tp := tapNode()
	p := n.newProc(0)
	base := homePage * apps.PageWords
	if got := p.Load(base + 6); got != 0 {
		t.Fatalf("fresh home page reads %d", got)
	}
	epoch := n.epoch.Load()
	n.handle(1, wire.Frame{Type: wire.TDiff, A: homePage, B: 9, Offs: []int32{6, 2}, Words: []int64{60, 70}})
	if ack := tp.next(t, wire.TFlushAck); ack.A != homePage || ack.B != 9 {
		t.Fatalf("flush ack names page %d token %d, want page %d token 9", ack.A, ack.B, homePage)
	}
	if e := p.tlb[homePage&tlbMask]; e.page != homePage || e.epoch != epoch || n.epoch.Load() != epoch {
		t.Fatal("the diff cost the home reader its cached frame")
	}
	if got := p.Load(base + 7); got != 70 {
		t.Errorf("home reader sees word 7 = %d after the diff, want 70", got)
	}
	tp.quiet(t, "home load after a remote diff")
}

// TestMigratoryHandOffGivesCopyUp scripts both ends of a record passed
// back and forth under a lock. Away from the home: the first release
// keeps the copy; the home's next release then invalidates it, which is
// the evidence; every later release gives the copy up in its diff
// (C=1). At the home: a sharer that gave its copy up is no longer
// registered, so the home's releases send nothing.
func TestMigratoryHandOffGivesCopyUp(t *testing.T) {
	n, tp := tapNode()
	p := n.newProc(0)
	base := remotePage * apps.PageWords
	wantC := []int64{0, 1, 1}
	for round, c := range wantC {
		// Lock; the record arrives; increment; unlock.
		p.Store(base, loadRemote(t, n, tp, p, 0, map[int]int64{0: int64(2 * round)})+1)
		if d := flushRemote(t, p, tp); d.C != c || len(d.Words) != 1 || d.Words[0] != int64(2*round+1) {
			t.Fatalf("round %d: release sent %+v, want word %d with C=%d", round, d, 2*round+1, c)
		}
		if kept := n.validLocked(remotePage); kept != (c == 0) {
			t.Fatalf("round %d: copy valid = %v after a diff with C=%d", round, kept, c)
		}
		// The other side's turn. Only a registered copy hears of it.
		if c == 0 {
			notice(t, n, tp)
		}
	}

	// The home's end, on the page this node homes.
	home := homePage * apps.PageWords
	for round := int64(0); round < 2; round++ {
		n.handle(1, wire.Frame{Type: wire.TPageReq, A: homePage, C: 1<<32 | (round + 1)})
		tp.next(t, wire.TPageReply)
		n.handle(1, wire.Frame{Type: wire.TDiff, A: homePage, B: 1<<32 | (round + 1), C: 1, Offs: []int32{0, 1}, Words: []int64{2*round + 1}})
		tp.next(t, wire.TFlushAck)
		p.Store(home, p.Load(home)+1)
		p.flush() // would block on the fence if it had sent a notice
		tp.quiet(t, "home release after the sharer gave its copy up")
	}
	if got := p.Load(home); got != 4 {
		t.Errorf("record = %d after four increments", got)
	}
}

// TestFalseSharingKeepsCopyAfterOneGiveUp: two ranks write different
// words of one page and release often. Giving the copy up buys nothing
// there — the node refetches at once for its own next store and the
// other writer's notice hits the fresh copy all the same — so the first
// give-up that is followed by a refetch and another notice before the
// node's next diff is the last: later diffs keep the copy (C=0).
func TestFalseSharingKeepsCopyAfterOneGiveUp(t *testing.T) {
	n, tp := tapNode()
	p := n.newProc(0)
	base := remotePage * apps.PageWords
	// Each round: refetch if the copy is gone, store our word, take the
	// other writer's notice mid-interval, release.
	wantC := []int64{1, 0, 0, 0} // the first notice is evidence, the second that giving up was wasted
	for round, c := range wantC {
		v := int64(round + 1)
		if !n.validLocked(remotePage) {
			loadRemote(t, n, tp, p, 1, map[int]int64{0: v - 1, 1: 10 * v})
		}
		p.Store(base, v)
		notice(t, n, tp)
		if d := flushRemote(t, p, tp); d.C != 0 {
			t.Fatalf("round %d: a copy already invalidated was given up: %+v", round, d)
		}
		// Refetch for the next store, and release again with the copy
		// valid: this is the diff that decides.
		loadRemote(t, n, tp, p, 1, map[int]int64{0: v, 1: 10*v + 1})
		p.Store(base+2, v)
		if d := flushRemote(t, p, tp); d.C != c {
			t.Fatalf("round %d: release sent C=%d, want %d: %+v", round, d.C, c, d)
		}
		if kept := n.validLocked(remotePage); kept != (c == 0) {
			t.Fatalf("round %d: copy valid = %v after a diff with C=%d", round, kept, c)
		}
	}
	if cp := &n.cache[remotePage]; !cp.keep {
		t.Error("the wasted give-up did not set the sticky keep")
	}
}

// hitStore stores through p and fails unless the store completes while
// the node mutex is held by someone else — the caller, or a flush the
// tap has stalled in Send: it must be a TLB hit.
func hitStore(t *testing.T, p *proc, addr int, v int64) {
	t.Helper()
	if p.n.mu.TryLock() {
		t.Fatal("hitStore wants the node mutex held")
	}
	stored := make(chan struct{})
	go func() { p.Store(addr, v); close(stored) }()
	select {
	case <-stored:
	case <-time.After(10 * time.Second):
		t.Fatalf("store to word %d waits for the node mutex", addr)
	}
}

// twinState returns whether page holds a twin, and its writer count.
func (n *node) twinState(page int) (twinned bool, writers int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cache[page].twin != nil, n.cache[page].writers
}

// twinnedPair fetches remotePage holding 90 in word 9 and has processor
// b, then processor a, write-fault on it: b stores 50 to word 5, a 30
// to word 3.
func twinnedPair(t *testing.T, n *node, tp *tap) (a, b *proc) {
	t.Helper()
	fetchRemote(t, n, tp, map[int]int64{9: 90})
	a, b = n.newProc(0), n.newProc(1)
	b.Store(remotePage*apps.PageWords+5, 50)
	a.Store(remotePage*apps.PageWords+3, 30)
	return a, b
}

// TestTwinOutlivesSiblingFlush is the twin rule, scripted. Two
// processors write-fault on a page and one releases: its diff carries
// both processors' words so far, and because the other is still on the
// page's writer count the twin stays, brought up to exactly the words
// that were sent. The tap stalls the diff in Send, under the node mutex,
// while the sibling — without the mutex — overwrites a word the diff
// carries and stores a new one: both must reach the home in the
// sibling's own diff, and nothing else may. A twin updated from the
// frame would swallow the overwrite, one not updated would resend the
// first diff's words, and a dropped one would send nothing.
func TestTwinOutlivesSiblingFlush(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	a, b := twinnedPair(t, n, tp)

	stalled, release := make(chan struct{}), make(chan struct{})
	tp.hold = func(f wire.Frame) {
		if f.Type == wire.TDiff {
			close(stalled)
			<-release
		}
	}
	flushed := make(chan struct{})
	go func() { a.flush(); close(flushed) }()
	<-stalled
	tp.hold = nil
	hitStore(t, b, base+5, 51)
	hitStore(t, b, base+6, 60)
	close(release)
	d := tp.next(t, wire.TDiff)
	if want := (wire.Frame{Type: wire.TDiff, A: remotePage, B: d.B, Offs: []int32{3, 1, 5, 1}, Words: []int64{30, 50}}); !wire.Equal(d, want) {
		t.Fatalf("first release sent %+v, want both processors' words as of its scan: %+v", d, want)
	}
	n.handle(1, wire.Frame{Type: wire.TFlushAck, A: d.A, B: d.B})
	<-flushed
	if twinned, writers := n.twinState(remotePage); !twinned || writers != 1 || !n.validLocked(remotePage) {
		t.Fatalf("after the first release: twinned %v, %d writers, want the twin held for the one sibling and the copy valid", twinned, writers)
	}

	d = flushRemote(t, b, tp)
	if want := (wire.Frame{Type: wire.TDiff, A: remotePage, B: d.B, Offs: []int32{5, 2}, Words: []int64{51, 60}}); !wire.Equal(d, want) {
		t.Errorf("second release sent %+v, want only what the first did not carry: %+v", d, want)
	}
	if twinned, writers := n.twinState(remotePage); twinned || writers != 0 {
		t.Errorf("after the last writer's release: twinned %v, %d writers", twinned, writers)
	}
	a.flush() // nothing of a's is dirty, nothing is in flight
	tp.quiet(t, "a release with an empty dirty list")
}

// TestTwinSurvivesNoticeBeforeSiblingFlush: the page is invalidated
// under both processors' stores, and the sibling has already faulted on
// its next store when the other releases. The release publishes the
// invalid page and keeps the twin; it disowns the sibling's request,
// whose reply may predate the diff; the re-request's reply merges under
// the twin; and the sibling's release sends its one new word — giving
// the copy up, now that it is the last writer of a noticed page.
func TestTwinSurvivesNoticeBeforeSiblingFlush(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	a, b := twinnedPair(t, n, tp)
	notice(t, n, tp)

	stored := make(chan struct{})
	go func() { b.Store(base+6, 60); close(stored) }() // the notice revoked b's entry
	stale := tp.next(t, wire.TPageReq)
	flushed := make(chan struct{})
	go func() { a.flush(); close(flushed) }()
	d := tp.next(t, wire.TDiff)
	if want := (wire.Frame{Type: wire.TDiff, A: remotePage, B: d.B, Offs: []int32{3, 1, 5, 1}, Words: []int64{30, 50}}); !wire.Equal(d, want) {
		t.Fatalf("release of the invalidated page sent %+v, want %+v", d, want)
	}
	again := tp.next(t, wire.TPageReq)
	n.handle(1, reply(stale, map[int]int64{7: 70, 9: 91})) // copied before the diff: no words 3, 5
	if n.validLocked(remotePage) {
		t.Fatal("the reply to a request sent before the flush was installed as a valid copy")
	}
	n.handle(1, reply(again, map[int]int64{3: 30, 5: 50, 7: 70, 9: 91}))
	<-stored
	n.handle(1, wire.Frame{Type: wire.TFlushAck, A: d.A, B: d.B})
	<-flushed
	if twinned, writers := n.twinState(remotePage); !twinned || writers != 1 {
		t.Fatalf("after the release: twinned %v, %d writers, want the twin held for the sibling", twinned, writers)
	}
	for off, want := range map[int]int64{3: 30, 5: 50, 6: 60, 7: 70, 9: 91} {
		if got := a.Load(base + off); got != want {
			t.Errorf("word %d = %d after the merge, want %d", off, got, want)
		}
	}

	d = flushRemote(t, b, tp)
	if want := (wire.Frame{Type: wire.TDiff, A: remotePage, B: d.B, C: 1, Offs: []int32{6, 1}, Words: []int64{60}}); !wire.Equal(d, want) {
		t.Errorf("sibling's release sent %+v, want its one new word and the give-up mark: %+v", d, want)
	}
	if twinned, _ := n.twinState(remotePage); twinned {
		t.Error("the last writer's release left the page twinned")
	}
}

// TestTwinHoldsOffGiveUp: the give-up rule would have a release of a
// noticed page invalidate the node's copy, but a sibling on the writer
// count is using it and would refetch at once, so the release keeps the
// copy, the registration and the epoch — the sibling's next store still
// hits — and the give-up waits for the last writer's release.
func TestTwinHoldsOffGiveUp(t *testing.T) {
	n, tp := tapNode()
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, nil)
	notice(t, n, tp) // the evidence: others write the page between our releases
	a, b := twinnedPair(t, n, tp)
	epoch := n.epoch.Load()

	if d := flushRemote(t, a, tp); d.C != 0 {
		t.Fatalf("a release gave the copy up while a sibling was on the writer count: %+v", d)
	}
	if !n.validLocked(remotePage) || n.epoch.Load() != epoch {
		t.Fatal("the release invalidated a copy a sibling is writing")
	}
	n.mu.Lock()
	hitStore(t, b, base+6, 60)
	n.mu.Unlock()
	d := flushRemote(t, b, tp)
	if want := (wire.Frame{Type: wire.TDiff, A: remotePage, B: d.B, C: 1, Offs: []int32{6, 1}, Words: []int64{60}}); !wire.Equal(d, want) {
		t.Errorf("last writer's release sent %+v, want %+v", d, want)
	}
	if n.validLocked(remotePage) {
		t.Error("the copy is still valid after a diff that told the home it was given up")
	}
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
		at   int // the node's rank; the frame comes from the other one
	}{
		{"page request beyond the space", wire.Frame{Type: wire.TPageReq, A: 99},
			"rank 0 asked for page 99, outside the space (page-req frame from rank 1, 2 pages)", 0},
		{"page request for a negative page", wire.Frame{Type: wire.TPageReq, A: -2},
			"rank 0 asked for page -2, outside the space", 0},
		{"page request to the wrong home", wire.Frame{Type: wire.TPageReq, A: remotePage},
			"rank 0 asked for page 1, homed on rank 1", 0},
		{"diff to the wrong home", wire.Frame{Type: wire.TDiff, A: remotePage, Offs: []int32{0, 1}, Words: []int64{1}},
			"rank 0 asked for page 1, homed on rank 1 (diff frame from rank 1", 0},
		{"diff beyond the space", wire.Frame{Type: wire.TDiff, A: 4, Offs: []int32{0, 1}, Words: []int64{1}},
			"rank 0 asked for page 4, outside the space", 0},
		{"diff run past the page end", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{pw - 1, 2}, Words: []int64{1, 2}},
			"malformed diff of page 0 from rank 1", 0},
		{"diff run at a negative offset", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{-1, 1}, Words: []int64{1}},
			"malformed diff of page 0 from rank 1", 0},
		{"diff runs short of the payload", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{0, 1}, Words: []int64{1, 2}},
			"malformed diff of page 0 from rank 1", 0},
		{"diff runs beyond the payload", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{0, 2, 8, 2}, Words: []int64{1, 2, 3}},
			"malformed diff of page 0 from rank 1", 0},
		{"diff runs that overlap", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{0, 2, 1, 2}, Words: []int64{1, 2, 3, 4}},
			"malformed diff of page 0 from rank 1: runs [0 2 1 2] over 4 words", 0},
		{"diff runs that go backwards", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{8, 2, 0, 2}, Words: []int64{1, 2, 3, 4}},
			"malformed diff of page 0 from rank 1: runs [8 2 0 2] over 4 words", 0},
		{"diff with half a run", wire.Frame{Type: wire.TDiff, A: 0, Offs: []int32{0, 1, 2}, Words: []int64{1}},
			"malformed diff of page 0 from rank 1", 0},
		{"diff with a give-up mark outside {0,1}", wire.Frame{Type: wire.TDiff, A: 0, C: 2, Offs: []int32{0, 1}, Words: []int64{1}},
			"malformed diff of page 0 from rank 1: runs [0 1] over 1 words of a 1024-word page, give-up mark 2", 0},
		{"diff with a negative give-up mark", wire.Frame{Type: wire.TDiff, A: 0, C: -1, Offs: []int32{0, 1}, Words: []int64{1}},
			"malformed diff of page 0 from rank 1", 0},
		{"page reply beyond the space", wire.Frame{Type: wire.TPageReply, A: 2, Words: make([]int64, pw)},
			"received a page-reply frame from rank 1 for page 2 of 2", 0},
		{"short page reply", wire.Frame{Type: wire.TPageReply, A: remotePage, Words: make([]int64, 3)},
			"received a 3-word reply for page 1 from rank 1, want 1024 words", 0},
		{"page reply for a page homed here", wire.Frame{Type: wire.TPageReply, A: 0, Words: make([]int64, pw)},
			"received a page-reply frame from rank 1 for page 0, which it homes", 0},
		{"page request with a mark outside {0..3}", wire.Frame{Type: wire.TPageReq, A: 0, B: 4},
			"rank 0 received a request for page 0 from rank 1 with marks 4, want 0..3", 0},
		{"page request with a negative mark", wire.Frame{Type: wire.TPageReq, A: 0, B: -1},
			"rank 0 received a request for page 0 from rank 1 with marks -1, want 0..3", 0},
		{"full page reply carrying runs", wire.Frame{Type: wire.TPageReply, A: remotePage, Offs: []int32{0, 1}, Words: make([]int64, pw)},
			"rank 0 received a page-reply frame from rank 1 carrying 0 pages, 2 offsets and 1024 words, which the type does not define", 0},
		{"page reply with a form mark outside {0,1}", wire.Frame{Type: wire.TPageReply, A: remotePage, B: 2, Words: make([]int64, pw)},
			"rank 0 received a reply for page 1 from rank 1 with form mark 2", 0},
		{"run reply past the page end", wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, Offs: []int32{pw - 1, 2}, Words: []int64{1, 2}},
			"rank 0 received a malformed run reply for page 1 from rank 1: runs [1023 2] over 2 words of a 1024-word page", 0},
		{"run reply with overlapping runs", wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, Offs: []int32{0, 2, 1, 2}, Words: []int64{1, 2, 3, 4}},
			"rank 0 received a malformed run reply for page 1 from rank 1: runs [0 2 1 2] over 4 words", 0},
		{"run reply with words its runs do not cover", wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, Offs: []int32{0, 1}, Words: []int64{1, 2}},
			"rank 0 received a malformed run reply for page 1 from rank 1: runs [0 1] over 2 words", 0},
		{"run reply with runs beyond its words", wire.Frame{Type: wire.TPageReply, A: remotePage, B: 1, Offs: []int32{0, 2, 8, 2}, Words: []int64{1, 2, 3}},
			"rank 0 received a malformed run reply for page 1 from rank 1: runs [0 2 8 2] over 3 words", 0},
		{"run reply for a page with no frame", wire.Frame{Type: wire.TPageReply, A: 0, B: 1, Offs: []int32{0, 1}, Words: []int64{1}},
			"rank 1 received a run reply for page 0 from rank 0, but holds no frame of it", 1},
		{"run reply for a page homed here", wire.Frame{Type: wire.TPageReply, A: 0, B: 1, Offs: []int32{0, 1}, Words: []int64{1}},
			"rank 0 received a page-reply frame from rank 1 for page 0, which it homes", 0},
		{"write notice for a page homed here", wire.Frame{Type: wire.TWriteNotice, A: 0},
			"received a write-notice frame from rank 1 for page 0, which it homes", 0},
		{"notice ack to the wrong home", wire.Frame{Type: wire.TNoticeAck, A: remotePage, B: 5},
			"rank 0 asked for page 1, homed on rank 1 (notice-ack frame from rank 1", 0},
		{"write notice beyond the space", wire.Frame{Type: wire.TWriteNotice, A: -1},
			"received a write-notice frame from rank 1 for page -1 of 2", 0},
		{"notice ack nobody waits for", wire.Frame{Type: wire.TNoticeAck, A: 0, B: 5},
			"received a notice ack from rank 1 for page 0, token 0x5, which awaits none", 0},
		{"flush ack nobody waits for", wire.Frame{Type: wire.TFlushAck, A: remotePage, B: 5},
			"rank 0 received a flush ack from rank 1 for page 1, token 0x5, but awaits none", 0},
		{"flag beyond the application's", wire.Frame{Type: wire.TFlagSet, A: 1 << 20},
			"rank 0 received a flag-set frame from rank 1 for flag 1048576 of ", 0},
		{"write notice batching pages", wire.Frame{Type: wire.TWriteNotice, A: remotePage, Pages: []int32{3, 5}},
			"rank 0 received a write-notice frame from rank 1 carrying 2 pages, 0 offsets and 0 words, which the type does not define", 0},
		{"push carrying pages", wire.Frame{Type: wire.TWriteNotice, A: remotePage, Pages: []int32{1}, Offs: []int32{0, 1}, Words: []int64{1}},
			"rank 0 received a write-notice frame from rank 1 carrying 1 pages, 2 offsets and 1 words, which the type does not define", 0},
		{"push with runs past the page end", wire.Frame{Type: wire.TWriteNotice, A: remotePage, Offs: []int32{pw - 1, 2}, Words: []int64{1, 2}},
			"rank 0 received a malformed push for page 1 from rank 1: runs [1023 2] over 2 words of a 1024-word page", 0},
		{"push with words its runs do not cover", wire.Frame{Type: wire.TWriteNotice, A: remotePage, Offs: []int32{0, 1}, Words: []int64{1, 2}},
			"rank 0 received a malformed push for page 1 from rank 1: runs [0 1] over 2 words", 0},
		{"push with words and no runs", wire.Frame{Type: wire.TWriteNotice, A: remotePage, Words: []int64{1}},
			"rank 0 received a malformed push for page 1 from rank 1: runs [] over 1 words", 0},
		{"push for a page with no frame", wire.Frame{Type: wire.TWriteNotice, A: 0, Offs: []int32{0, 1}, Words: []int64{1}},
			"rank 1 received a push for page 0 from rank 0, but holds no frame of it", 1},
		{"push for a page homed here", wire.Frame{Type: wire.TWriteNotice, A: 0, Offs: []int32{0, 1}, Words: []int64{1}},
			"rank 0 received a write-notice frame from rank 1 for page 0, which it homes", 0},
		{"barrier arrival away from rank 0", wire.Frame{Type: wire.TBarArrive, A: 1, B: 0},
			"rank 1 received a bar-arrive frame from rank 0, but only rank 0 coordinates", 1},
		{"lock request away from the lock's home", wire.Frame{Type: wire.TLockReq, A: 0, B: 0},
			"rank 1 received a lock-req frame from rank 0 for lock 0, which is homed on rank 0", 1},
		{"lock release away from the lock's home", wire.Frame{Type: wire.TLockRelease, A: 2, B: 0},
			"rank 1 received a lock-release frame from rank 0 for lock 2, which is homed on rank 0", 1},
		{"barrier release not from rank 0", wire.Frame{Type: wire.TBarRelease, A: 1},
			"rank 0 received a bar-release frame from rank 1, but only rank 0 coordinates", 0},
		{"lock grant not from the lock's home", wire.Frame{Type: wire.TLockGrant, A: 0, B: 0},
			"rank 0 received a lock-grant frame from rank 1 for lock 0, which is homed on rank 0", 0},
		{"lock grant for a processor hosted elsewhere", wire.Frame{Type: wire.TLockGrant, A: 2, B: 1},
			"rank 1 received a lock-grant frame from rank 0 for lock 2 and processor 1, which rank 1 does not host", 1},
		{"lock request for a processor the sender does not host", wire.Frame{Type: wire.TLockReq, A: 0, B: 0},
			"rank 0 received a lock-req frame from rank 1 for lock 0 and processor 0, which rank 1 does not host", 0},
		{"release of a lock nobody holds", wire.Frame{Type: wire.TLockRelease, A: 2, B: 2},
			"rank 0 received a release of lock 2 from rank 1, which is not held", 0},
		{"lock request for a lock beyond the application's", wire.Frame{Type: wire.TLockReq, A: tapLocks, B: 2},
			"rank 0 received a lock-req frame from rank 1 for lock 4 of 4", 0},
		{"lock grant for a negative lock", wire.Frame{Type: wire.TLockGrant, A: -2, B: 2},
			"rank 1 received a lock-grant frame from rank 0 for lock -2 of 4", 1},
		{"release listing a page homed elsewhere", wire.Frame{Type: wire.TLockRelease, A: 0, B: 2, Pages: []int32{0, 1}},
			"rank 0 received a release of lock 0 from rank 1 listing page 1, homed on rank 1 (pages [0 1], 2 pages)", 0},
		{"release listing a page beyond the space", wire.Frame{Type: wire.TLockRelease, A: 0, B: 2, Pages: []int32{2}},
			"rank 0 received a release of lock 0 from rank 1 listing page 2, outside the space", 0},
		{"release listing pages out of order", wire.Frame{Type: wire.TLockRelease, A: 0, B: 2, Pages: []int32{0, 0}},
			"rank 0 received a release of lock 0 from rank 1 listing page 0, out of order", 0},
		{"release carrying runs", wire.Frame{Type: wire.TLockRelease, A: 0, B: 2, Pages: []int32{0}, Offs: []int32{0}},
			"rank 0 received a lock-release frame from rank 1 carrying 1 pages, 1 offsets and 0 words, which the type does not define", 0},
		{"grant carrying a page homed at the grantee", wire.Frame{Type: wire.TLockGrant, A: 0, B: 2, Pages: []int32{1}, Offs: []int32{0}},
			"rank 1 received a malformed grant of lock 0 from rank 0: page 1 is homed here", 1},
		{"grant carrying a page beyond the space", wire.Frame{Type: wire.TLockGrant, A: 0, B: 2, Pages: []int32{2}, Offs: []int32{0}},
			"rank 1 received a malformed grant of lock 0 from rank 0: page 2 is outside the space", 1},
		{"grant carrying a page with no frame", wire.Frame{Type: wire.TLockGrant, A: 0, B: 2, Pages: []int32{0}, Offs: []int32{1, 0, 1}, Words: []int64{1}},
			"rank 1 received a malformed grant of lock 0 from rank 0: page 0 has no frame here", 1},
		{"grant with runs past the page end", wire.Frame{Type: wire.TLockGrant, A: 0, B: 2, Pages: []int32{0}, Offs: []int32{1, pw - 1, 2}, Words: []int64{1, 2}},
			"rank 1 received a malformed grant of lock 0 from rank 0: page 0's runs [1023 2] do not fit a page", 1},
		{"grant with overlapping runs", wire.Frame{Type: wire.TLockGrant, A: 0, B: 2, Pages: []int32{0}, Offs: []int32{2, 0, 2, 1, 2}, Words: []int64{1, 2, 3, 4}},
			"rank 1 received a malformed grant of lock 0 from rank 0: page 0's runs [0 2 1 2] do not fit a page", 1},
		{"grant with fewer run counts than pages", wire.Frame{Type: wire.TLockGrant, A: 0, B: 2, Pages: []int32{0}},
			"rank 1 received a malformed grant of lock 0 from rank 0: fewer run counts than pages", 1},
		{"grant counting more runs than it carries", wire.Frame{Type: wire.TLockGrant, A: 0, B: 2, Pages: []int32{0}, Offs: []int32{2, 0, 1}, Words: []int64{1}},
			"rank 1 received a malformed grant of lock 0 from rank 0: page 0's run count 2 exceeds the offsets", 1},
		{"grant carrying runs it does not count", wire.Frame{Type: wire.TLockGrant, A: 0, B: 2, Pages: []int32{0}, Offs: []int32{0, 0, 1}, Words: []int64{1}},
			"rank 1 received a malformed grant of lock 0 from rank 0: 2 offsets beyond the counted runs", 1},
		{"grant with words its runs do not cover", wire.Frame{Type: wire.TLockGrant, A: 0, B: 2, Pages: []int32{0}, Offs: []int32{1, 0, 1}, Words: []int64{1, 2}},
			"rank 1 received a malformed grant of lock 0 from rank 0: runs over 1 words carry 2", 1},
		{"grant carrying runs with no pages", wire.Frame{Type: wire.TLockGrant, A: 0, B: 2, Offs: []int32{0, 1}, Words: []int64{1}},
			"rank 1 received a malformed grant of lock 0 from rank 0: 2 offsets beyond the counted runs", 1},
		{"arrival reporting a page beyond the space", wire.Frame{Type: wire.TBarArrive, A: 1, B: 2, Pages: []int32{2}, Offs: []int32{1}},
			"rank 0 received a malformed bar-arrive frame from rank 1: pages [2], entries [1] (2 pages, entries below 2)", 0},
		{"arrival with a validity mark outside {0,1}", wire.Frame{Type: wire.TBarArrive, A: 1, B: 2, Pages: []int32{1}, Offs: []int32{2}},
			"rank 0 received a malformed bar-arrive frame from rank 1: pages [1], entries [2]", 0},
		{"arrival with more pages than marks", wire.Frame{Type: wire.TBarArrive, A: 1, B: 2, Pages: []int32{0, 1}, Offs: []int32{1}},
			"rank 0 received a malformed bar-arrive frame from rank 1: pages [0 1], entries [1]", 0},
		{"release moving a page to a rank outside the mesh", wire.Frame{Type: wire.TBarRelease, A: 1, Pages: []int32{0}, Offs: []int32{2}},
			"rank 1 received a malformed bar-release frame from rank 0: pages [0], entries [2] (2 pages, entries below 2)", 1},
		{"release moving a page to its own home", wire.Frame{Type: wire.TBarRelease, A: 1, Pages: []int32{1}, Offs: []int32{1}},
			"rank 1 received a malformed bar-release frame from rank 0: pages [1], entries [1]", 1},
		{"release moving a page beyond the space", wire.Frame{Type: wire.TBarRelease, A: 1, Pages: []int32{-1}, Offs: []int32{1}},
			"rank 1 received a malformed bar-release frame from rank 0: pages [-1]", 1},
		{"release carrying words", wire.Frame{Type: wire.TBarRelease, A: 1, Pages: []int32{0}, Offs: []int32{1}, Words: []int64{7}},
			"rank 1 received a bar-release frame from rank 0 carrying 1 pages, 1 offsets and 1 words, which the type does not define", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := tapAt(tc.at, 2)
			switch {
			case tc.at == 0:
				// A frame of the page homed on rank 1, for run replies to
				// land in.
				n.cache[remotePage].data = make([]int64, pw)
			case tc.f.Type == wire.TLockGrant && !strings.HasSuffix(tc.name, "with no frame"):
				// A frame of the page homed on rank 0, for grants to carry.
				n.cache[homePage].data = make([]int64, pw)
			}
			defer func() {
				msg, ok := recover().(string)
				if !ok || !strings.HasPrefix(msg, "mprun: ") || !strings.Contains(msg, tc.want) {
					t.Errorf("handle(%+v) panicked with %q, want an mprun message containing %q", tc.f.Type, msg, tc.want)
				}
			}()
			n.handle(1-tc.at, tc.f)
			t.Errorf("handle accepted the frame")
		})
	}
}

// TestMergedRunProfile merges a traced 2x2 Gauss run as the tcp
// launcher does and reads it with the tools the simulator's recording
// is read with. Gauss's rows are dealt cyclically, so with 64-word
// pages both ranks store to the same pages: the profile must count a
// writer on each, the home's included, the page's timeline must
// interleave the two ranks on one aligned wall clock, and the give-up
// rule's kept copies must be pushed to (a notice-send carrying words).
func TestMergedRunProfile(t *testing.T) {
	const nodes, ppn = 2, 2
	ranks, _ := tracedMesh(t, func() apps.App { return apps.SmallGauss() }, nodes, ppn, 64)
	rec, err := trace.Merge(ranks)
	if err != nil {
		t.Fatal(err)
	}

	// Global processor ids: rank r's are r*ppn..r*ppn+ppn-1, and its
	// handler's events sit on Proc = -1 of node r.
	var handler, pushes int
	for _, e := range rec.Events {
		if e.Kind == trace.EvNoticeSend && e.Arg2 > 0 {
			pushes++
		}
		switch {
		case e.Proc == -1:
			handler++
			switch e.Kind {
			case trace.EvDiffIn, trace.EvNoticeSend, trace.EvNoticeApply, trace.EvHomeMigrate:
			default:
				t.Fatalf("%v on node %d's handler track", e.Kind, e.Node)
			}
		case e.Proc < 0 || int(e.Proc) >= nodes*ppn || int(e.Proc)/ppn != int(e.Node):
			t.Fatalf("processor %d on node %d: %+v", e.Proc, e.Node, e)
		}
	}
	if handler == 0 {
		t.Error("no handler events in the merged recording")
	}
	if pushes == 0 {
		t.Error("no release pushed to a kept copy")
	}

	// What the ranks recorded, before any merging: who stored to what.
	stored := map[int32][nodes]bool{}
	for r, tk := range ranks {
		for _, e := range tk.Events {
			if e.Kind == trace.EvWriteFault {
				by := stored[e.Page]
				by[r] = true
				stored[e.Page] = by
			}
		}
	}

	prof := metrics.BuildProfile(rec, 1<<20)
	if len(prof.Pages) == 0 {
		t.Fatal("empty profile")
	}
	shared := -1
	for _, pg := range prof.Pages {
		// Protocol time is fault time, and only a page some other rank
		// homes can fault for longer than an instant.
		if pg.ProtocolNS > 0 && pg.Transfers == 0 {
			t.Errorf("page %d is hot (%d ns) but was never fetched: %+v", pg.Page, pg.ProtocolNS, pg)
		}
		if by := stored[int32(pg.Page)]; by[0] && by[1] {
			if pg.Writers < 2 {
				t.Errorf("page %d stored to by both ranks has %d writers (%s)", pg.Page, pg.Writers, pg.Pattern)
			}
			if shared < 0 {
				shared = pg.Page
			}
		}
	}
	if shared < 0 {
		t.Fatal("no page with stores from both ranks")
	}

	var buf strings.Builder
	if err := trace.WritePageTimeline(&buf, rec, map[int]bool{shared: true}); err != nil {
		t.Fatal(err)
	}
	last, seen := int64(-1), [nodes]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var at int64
		var track string
		var node int
		if _, err := fmt.Sscanf(line, "wt=%dns %s n%d pg", &at, &track, &node); err != nil {
			t.Fatalf("timeline line %q: %v", line, err)
		}
		if at < last {
			t.Errorf("timeline line %q follows one at %d ns", line, last)
		}
		last, seen[node] = at, true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("page %d's timeline has lines of ranks %v, want both:\n%s", shared, seen, buf.String())
	}
}

// tapBarrier plays one barrier of tapNode's cluster, with the node under
// test as coordinator: both of its processors in procs arrive, rank 1's
// two processors arrive, the second reporting the pages and validity
// marks in report, and the node releases the barrier. A release that
// moves pages holds the processors for an internal barrier, played the
// same way with nothing to report. Every frame the node sends meanwhile
// must be an arrival or a release: no page data moves. It returns the
// node's own last local arrival and the release it broadcast.
func tapBarrier(t *testing.T, n *node, tp *tap, procs [2]*proc, report wire.Frame) (arrival, release wire.Frame) {
	t.Helper()
	done := make(chan struct{}, 2)
	for _, p := range procs {
		go func() { p.Barrier(); done <- struct{}{} }()
	}
	round := func(report wire.Frame) (arrival, release wire.Frame) {
		t.Helper()
		for range procs {
			to, f := tp.nextTo(t, wire.TBarArrive)
			if to != 0 {
				t.Fatalf("arrival sent to rank %d", to)
			}
			n.handle(0, f)
			arrival = f // the last local arrival
		}
		n.handle(1, wire.Frame{Type: wire.TBarArrive, A: arrival.A, B: 2})
		report.Type, report.A, report.B = wire.TBarArrive, arrival.A, 3
		n.handle(1, report)
		for r := range 2 {
			to, f := tp.nextTo(t, wire.TBarRelease)
			if to != r || r == 1 && !wire.Equal(f, release) {
				t.Fatalf("release %+v to rank %d, want one release to each rank", f, to)
			}
			release = f
		}
		n.handle(0, release)
		return arrival, release
	}
	arrival, release = round(report)
	if len(release.Pages) > 0 {
		select {
		case <-done:
			t.Fatal("a processor left a barrier that moved pages before the internal barrier")
		case <-time.After(20 * time.Millisecond):
		}
		if _, internal := round(wire.Frame{}); len(internal.Pages) > 0 {
			t.Fatalf("the internal barrier moved pages: %+v", internal)
		}
	}
	<-done
	<-done
	tp.quiet(t, "after the barrier")
	return arrival, release
}

// placing opens page placement on n, as leaving EndInit does.
func placing(n *node) {
	n.mu.Lock()
	n.placing = true
	n.mu.Unlock()
}

// TestPlacementMovesSoleWriter: a page written after EndInit by one rank
// only, which holds a valid copy and is not its home, moves there at the
// barrier, and no page data travels. Here the node under test is first
// the old home of page 0 — its master becomes an invalid copy, and its
// next load fetches from the new home — and then the new home of page 1,
// whose valid copy becomes the master with no sharers: the node's own
// release sends nothing, and it serves rank 1's request.
func TestPlacementMovesSoleWriter(t *testing.T) {
	n, tp := tapNode()
	procs := [2]*proc{n.newProc(0), n.newProc(1)}
	procs[0].Store(homePage*apps.PageWords+1, 10)
	if len(n.wrote) != 0 {
		t.Fatalf("a store before EndInit was recorded: %v", n.wrote)
	}
	tapBarrier(t, n, tp, procs, wire.Frame{})
	placing(n)

	// Rank 1 alone wrote page 0, and holds a valid copy.
	_, rel := tapBarrier(t, n, tp, procs, wire.Frame{Pages: []int32{homePage}, Offs: []int32{1}})
	if want := (wire.Frame{Type: wire.TBarRelease, A: rel.A, Pages: []int32{homePage}, Offs: []int32{1}}); !wire.Equal(rel, want) {
		t.Fatalf("release %+v, want %+v", rel, want)
	}
	if n.homeOf(homePage) != 1 || n.home[homePage].data != nil || n.validLocked(homePage) {
		t.Fatal("the old home kept its master copy")
	}
	loaded := make(chan int64)
	go func() { loaded <- procs[1].Load(homePage*apps.PageWords + 1) }()
	to, req := tp.nextTo(t, wire.TPageReq)
	if to != 1 {
		t.Fatalf("the old home asked rank %d for the page, want its new home, rank 1", to)
	}
	n.handle(1, reply(req, map[int]int64{1: 11}))
	if got := <-loaded; got != 11 {
		t.Errorf("load after the move = %d, want the new home's 11", got)
	}

	// The node alone wrote page 1, homed on rank 1, and kept its copy.
	base := remotePage * apps.PageWords
	fetchRemote(t, n, tp, map[int]int64{9: 90})
	procs[0].Store(base+3, 30)
	flushRemote(t, procs[0], tp)
	arr, rel := tapBarrier(t, n, tp, procs, wire.Frame{})
	if want := (wire.Frame{Type: wire.TBarArrive, A: arr.A, B: arr.B, Pages: []int32{remotePage}, Offs: []int32{1}}); !wire.Equal(arr, want) {
		t.Fatalf("last local arrival %+v, want %+v", arr, want)
	}
	if len(rel.Pages) != 1 || rel.Pages[0] != remotePage || rel.Offs[0] != 0 {
		t.Fatalf("release %+v, want page 1 moved to rank 0", rel)
	}
	if hp := &n.home[remotePage]; n.homeOf(remotePage) != 0 || &hp.data[0] != &n.cache[remotePage].data[0] || slices.Contains(hp.sharers, true) {
		t.Fatal("the new home did not adopt its copy as the master with no sharers")
	}
	for off, want := range map[int]int64{3: 30, 9: 90} {
		if got := procs[1].Load(base + off); got != want {
			t.Errorf("word %d = %d on the new home, want %d", off, got, want)
		}
	}
	procs[0].Store(base+3, 31)
	procs[0].flush() // would block on the fence if it had sent a notice
	tp.quiet(t, "the new home's release with no sharers")
	n.handle(1, wire.Frame{Type: wire.TPageReq, A: remotePage, C: 1<<32 | 9})
	if r := tp.next(t, wire.TPageReply); r.Words[3] != 31 || r.Words[9] != 90 {
		t.Errorf("the new home's reply carries words 3, 9 = %d, %d, want 31, 90", r.Words[3], r.Words[9])
	}
}

// TestPlacementKeepsSharedAndHomeWritten: a page written by two ranks in
// its first interval after EndInit, or by its home alone, is placed and
// stays. Placed, it stays for good: a later sole writer moves nothing,
// and the node reports no page twice.
func TestPlacementKeepsSharedAndHomeWritten(t *testing.T) {
	n, tp := tapNode()
	procs := [2]*proc{n.newProc(0), n.newProc(1)}
	placing(n)
	fetchRemote(t, n, tp, nil)
	procs[0].Store(homePage*apps.PageWords, 1)
	procs[1].Store(remotePage*apps.PageWords, 2)
	flushRemote(t, procs[1], tp)
	arr, rel := tapBarrier(t, n, tp, procs, wire.Frame{Pages: []int32{remotePage}, Offs: []int32{1}})
	if !slices.Equal(arr.Pages, []int32{homePage, remotePage}) || !slices.Equal(arr.Offs, []int32{1, 1}) {
		t.Fatalf("last local arrival reports pages %v, marks %v, want both pages, valid", arr.Pages, arr.Offs)
	}
	if len(rel.Pages) != 0 {
		t.Fatalf("release moved pages %v written by two ranks or by their home", rel.Pages)
	}

	procs[0].Store(homePage*apps.PageWords, 3)
	procs[0].flush()
	arr, rel = tapBarrier(t, n, tp, procs, wire.Frame{Pages: []int32{homePage}, Offs: []int32{1}})
	if len(arr.Pages) != 0 || len(rel.Pages) != 0 {
		t.Errorf("placed pages were reported (%v) or moved (%v)", arr.Pages, rel.Pages)
	}
	if n.homeOf(homePage) != 0 || n.homeOf(remotePage) != 1 {
		t.Error("a placed page moved")
	}
}

// TestPlacementKeepsGivenUpCopy: the page's only writer gave its copy up
// in its diff (TDiff.C=1), so it reports no valid copy and the page
// stays where it is.
func TestPlacementKeepsGivenUpCopy(t *testing.T) {
	n, tp := tapNode()
	procs := [2]*proc{n.newProc(0), n.newProc(1)}
	placing(n)
	fetchRemote(t, n, tp, nil)
	procs[0].Store(remotePage*apps.PageWords+3, 30)
	notice(t, n, tp)
	loadRemote(t, n, tp, procs[0], 5, nil)
	if d := flushRemote(t, procs[0], tp); d.C != 1 {
		t.Fatalf("release sent %+v, want the give-up mark", d)
	}
	arr, rel := tapBarrier(t, n, tp, procs, wire.Frame{})
	if !slices.Equal(arr.Pages, []int32{remotePage}) || !slices.Equal(arr.Offs, []int32{0}) {
		t.Fatalf("last local arrival reports pages %v, marks %v, want page 1 without a valid copy", arr.Pages, arr.Offs)
	}
	if len(rel.Pages) != 0 || n.homeOf(remotePage) != 1 {
		t.Errorf("a page whose writer gave its copy up moved: %+v", rel)
	}
}

// TestPlacementLaterInterval: a page nobody writes in the first
// intervals after EndInit keeps its home through their barriers, and
// moves at the barrier ending the interval it is first written in.
func TestPlacementLaterInterval(t *testing.T) {
	n, tp := tapNode()
	procs := [2]*proc{n.newProc(0), n.newProc(1)}
	placing(n)
	for range 2 {
		if _, rel := tapBarrier(t, n, tp, procs, wire.Frame{}); len(rel.Pages) != 0 {
			t.Fatalf("a barrier with no writes moved pages %v", rel.Pages)
		}
	}
	if _, rel := tapBarrier(t, n, tp, procs, wire.Frame{Pages: []int32{homePage}, Offs: []int32{1}}); len(rel.Pages) != 1 || n.homeOf(homePage) != 1 {
		t.Fatalf("release %+v, want page 0 moved to rank 1", rel)
	}
}

// TestMoveRefusesPageInUse: a release that moves a page this node still
// has a twin of — a store no release has flushed — is a protocol error,
// and the handler says which page.
func TestMoveRefusesPageInUse(t *testing.T) {
	n, tp := tapAt(1, 2)
	p := n.newProc(0)
	addr := 0 // page 0, homed on rank 0
	stored := make(chan struct{})
	go func() { p.Store(addr, 5); close(stored) }()
	n.handle(0, reply(tp.next(t, wire.TPageReq), nil))
	<-stored
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "mprun: rank 1: page 0 moves to rank 1 while it has a twin (true), 1 writers") {
			t.Errorf("handler panicked with %q, want a message naming the page and its twin", msg)
		}
	}()
	n.handle(0, wire.Frame{Type: wire.TBarRelease, A: 1, Pages: []int32{0}, Offs: []int32{1}})
	t.Error("handler moved a page with a twin")
}
