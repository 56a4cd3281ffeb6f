// Package mprun is the multi-process DSM runtime: it runs the
// benchmark applications across separate OS processes connected by a
// transport.Messenger (the TCP mesh of transport/tcpchan, or the
// in-process mesh of transport/shmchan for tests), speaking the wire
// frames of transport/wire. Where the simulator engine (internal/core)
// models the paper's protocols against a virtual clock, mprun executes
// a real home-based software-coherence protocol with actual
// concurrency: pages live on statically-assigned homes whose own
// processors work on the master copy in place, other writers twin a
// page at its first store and flush run-encoded diffs against the twin
// at release operations (internal/diff, paper Sections 2.2 and 2.5),
// homes eagerly invalidate sharers with write notices, and all
// application synchronization funnels through a rank-0 coordinator.
//
// # Protocol
//
// Page p is homed on rank p % nodes, and the home holds its master copy.
//
// On the home, the node's view of the page is the master copy itself,
// valid from the start: its processors load and store it in place, with
// no fetch, twin or diff, and never send the node a frame about it. A
// processor's first store to it since its last release puts the page on
// that processor's dirty list; that is all its release needs to know.
//
// Elsewhere, a processor's first access to the page fetches a copy from
// the home (TPageReq/TPageReply) and registers the node as a sharer.
// A processor's first store to it since its last release is a write
// fault: the page goes on the processor's dirty list and the processor
// on the page's writer count, and the first processor on the count
// copies the page to a pooled twin. Stores then go straight to the
// node's copy, which the node's processors share as they would a
// hardware-coherent frame.
//
// At every release operation (Unlock, Barrier, SetFlag, and once after
// the application body returns) a processor publishes the pages on its
// own dirty list, in ascending page order, and leaves their writer
// counts; its siblings' lists are theirs to publish. A cached page is
// compared with its twin and the words that differ — its own and any
// sibling's so far — go to the home as a run-encoded TDiff; a page whose
// stores changed nothing sends nothing. The flush that takes the last
// processor off the writer count drops the twin. One that leaves
// siblings on it keeps the twin and writes the words it sent into it
// (the paper's flush-update, Section 2.5), so that their releases send
// only what is newer; they go on storing throughout, and nothing stops
// or waits for them (see "Access path"). A run never bridges an
// unchanged word, because the home applies every word it is sent.
//
// The home applies the runs to the master, sends a TWriteNotice to
// every sharer but the flusher, striking each from the sharer set, and
// answers the flusher with a TFlushAck once no notice for the page is
// unacknowledged. A dirty page homed here needs no
// diff — the words are already in the master — so the flush itself
// sends the notices, to every sharer, and completes locally on the last
// TNoticeAck; with no sharer it sends nothing at all. Either kind of
// release also waits for notices a previous release of the page has
// out, though it sent none: the copies those are about to invalidate
// lack its words too. The release operation does not complete until
// every diff and notice of the node's — a sibling's diff may be
// carrying this processor's words — is acknowledged, so by the time a
// matching acquire can succeed anywhere, every stale copy has been
// invalidated: the same eager release consistency argument the paper's
// protocols make.
//
// Who holds a valid copy after a release: the home, always; the
// flusher, if its copy was valid when it flushed — it has every word
// the diff carries, it stays in the sharer set, and it is invalidated
// like any other sharer by the next diff or home release that is not
// its own; nobody else.
//
// The give-up rule is the exception. Keeping the copy is a loss when
// the page migrates: the next writer's release then pays a notice round
// trip to invalidate a copy that would have been refetched anyway. A
// node cannot see the sharing pattern, but it sees what happens to its
// copy. Once a write notice has invalidated a valid copy of the page
// (cpage.noticed), others demonstrably write it between this node's
// releases, so from then on the flush that takes the last writer off
// the page gives the node's valid copy up — invalidates it and says so
// in TDiff.C (a sibling still writing the page would only refetch it),
// and the home strikes the flusher from the sharer set, which is what
// makes a home processor's release of a migratory page cost no frame.
// The rule checks its own work: if a copy refetched after a give-up
// (cpage.gaveUp) takes another notice before the node's next diff of
// the page, giving up spared no notice and bought only the refetch —
// pages falsely shared by concurrent writers behave so — and the node
// keeps its copy of that page from then on (cpage.keep, sticky). The
// three flags record only what this node observed on this page; the
// kind of release and the application are not consulted.
//
// A page that is invalidated while it holds unflushed local writes
// keeps its twin. It is refetched on next access and the reply merged
// under the local writes with diff.Incoming — words that differ from
// the twin are the remote modifications, and go to both copy and twin —
// mirroring the two-way diffing of concurrent fine-grained sharing: two
// nodes writing disjoint words of one page between the same pair of
// synchronization operations both win. A home processor is one of the
// two as a matter of course: the other's diff carries only its own
// words.
//
// The fetch-id rule: every page request carries a fresh id in Frame.C,
// the home echoes it, and a reply is accepted only if it echoes the
// page's latest request. It exists for one case. A flush that publishes
// an invalid page while a sibling processor's request for the page is
// in flight disowns that request: the home may have copied the page
// ahead of the diff, and the reply — merged under a twin that now holds
// the flushed words, or installed with no twin at all — would replace
// the node's own flushed words with older ones that no notice would
// ever correct. The waiting processor asks again, behind the diff
// on the same ordered channel. (A valid copy has no request in flight.)
//
// Replies are ordered before notices. A copy taken at the home and a
// notice for a later store travel to the requester on one ordered
// channel, and the requester relies on meeting them in that order: a
// notice that finds no valid copy is acknowledged and forgotten. The
// handler sends both, in order, for remote writers' diffs; but a home
// processor's flush sends its notices from the processor's goroutine,
// so the handler sends each TPageReply before it releases the node
// mutex, and the flush sends under the same mutex.
//
// # Frame memory
//
// The runtime builds no buffer per frame and leaves the Messenger none
// to build: Send borrows a frame's slices until it returns and the
// handler borrows them until it returns (the transport.Messenger
// contract). A page reply's Words are a snapshot of the master copy,
// taken word-atomically under the node mutex into a buffer borrowed from
// the twin pool and returned to it when Send is back — home processors
// store to the master without the mutex, so the copy itself cannot be
// lent — and every diff of a release goes out from the node's one run
// scratch, overwritten for the next page as soon as Send is back. Both
// sends happen under the node mutex (replies for the ordering above).
// What arrives is copied where it belongs before the handler returns — a
// reply into the node's frame of the page, a diff's runs into the master
// — and no slice of a received frame is kept.
//
// # Access path
//
// The page cache and the home table are slices indexed by page; on the
// home rank the cache entry's frame is the home table's. Each processor
// has a 16-entry direct-mapped software TLB, the shape of
// internal/core's: page, frame, the node's invalidation epoch when the
// entry was filled, and a writable bit. A Load hits if the page matches
// and the epoch still stands; a Store hits if the entry is also
// writable. A hit takes no lock: it is that compare, one atomic load of
// the epoch and one atomic load or store of the word. A miss takes the
// node mutex and is the fault — fetch the page if the node's copy is
// invalid; for a store, join the dirty list and the writer count and
// twin the page — and fills the entry.
//
// The epoch is bumped, under the mutex, by every write notice that
// invalidates a copy and every flush that gives one up, and by nothing
// else; that is all that ever revokes another processor's entries. A
// release that keeps its copies bumps nothing, so its siblings' hits —
// and its own load hits — continue across it; it clears the writable
// bits of its own entries, which are private, and so faults on its own
// next store to each page. A master copy is never invalidated at all.
//
// No release stops, drains or waits for a sibling's stores: the twin
// rule makes that unnecessary, as two-way diffing does in the paper. A
// processor with a writable entry is on the page's writer count until
// its own next release, so until then the page has a twin, and the twin
// holds only words that were fetched or have been sent to the home (a
// flush-update takes them from the run scratch, never from the frame).
// Wherever the processor's store lands — after a sibling's scan of the
// page, after a notice has invalidated the copy, during the refetch
// that follows, which diff.Incoming merges under the twin — the frame
// differs from the twin at that word, and the next flush to scan the
// page, the processor's own at the latest, sends it.
//
// StoreFRow does the same bookkeeping but holds the mutex across each
// page segment, and its stores are plain: the mutex is what orders them
// against scans, snapshots and incoming diffs, where an atomic store per
// word would cost the row kernels several nanoseconds on each of their
// millions of words.
//
// A frame is only ever updated in place and word-atomically, but for
// StoreFRow — a cached one by scalar stores, diff.Refresh and
// diff.Incoming, a master copy by scalar stores and the handler's
// diff.ApplyRuns — so a load that races the handler may observe, word by
// word, either the copy it validated or a newer one, but never a torn
// word and never data older than its processor's last acquire: every
// acquire waits under the mutex, after the handler has bumped the epoch
// for each notice the matching release fenced on, and a master copy has
// the release's words before its TFlushAck is sent. It may not observe
// another processor's StoreFRow in flight: reading a word while it is
// being stored plainly is a data race in the application.
//
// Frames off the wire index those slices, so the handler range-checks
// page numbers, flag ids, diff runs, give-up marks and reply lengths,
// refuses a reply or notice for a page it homes, an acknowledgement it
// does not await and a slice the frame's type does not define, and
// panics with the offending rank and frame rather than faulting.
//
// # Synchronization
//
// Rank 0 coordinates locks (FIFO grant queues per lock id) and
// barriers (count arrivals per generation, broadcast the release).
// Flags are broadcast by the setter after its flush. Messages from one
// rank are delivered in order; the handler runs single-threaded per
// node (the Messenger contract), so protocol state needs no locking
// against concurrent frames — only against the node's processor
// goroutines.
//
// # Observability
//
// With Config.Tracer set the runtime records wall-clock protocol
// events on internal/trace rings: fault and page-fetch spans, diff
// flushes, the notices a home processor's flush sends, the
// release-fence wait (EvFlushFence), and lock, flag, and barrier waits
// on each processor goroutine's ring, plus incoming diffs and the write
// notices they cause on the frame handler's ring (index PPN). Every
// write fault is recorded — an instant when nothing had to be fetched,
// as on the page's home — so a trace names each processor that stored
// to a page; a load that hits, like every load of a master copy,
// records nothing. trace.Merge turns the ranks' buffers into the one
// trace.Recording that the Chrome exporter, the page timeline and the
// profiler read, exactly as they read the simulator's: processors
// numbered Rank*PPN + local, the handler on its node's own "net" track.
// The request ids of the fetch-id rule double as correlation ids: they
// are what lets transport.FrameStats measure request→reply latency at
// the messenger seam. A nil Tracer costs one branch per site and
// changes no frame.
package mprun

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"cashmere/internal/apps"
	"cashmere/internal/costs"
	"cashmere/internal/diff"
	"cashmere/internal/trace"
	"cashmere/internal/transport"
	"cashmere/internal/transport/wire"
)

// Config shapes one node's share of a multi-process run.
type Config struct {
	// Rank is this node's rank; Nodes the total node (process) count.
	Rank, Nodes int
	// PPN is the number of processor goroutines this node hosts.
	PPN int
	// PageWords is the coherence unit in 64-bit words (0 = the
	// applications' default).
	PageWords int
	// Model is carried for the applications' Verify (sequential
	// reference regeneration); no virtual time is charged.
	Model costs.Model

	// Tracer, when non-nil, records this node's protocol events: ring
	// i < PPN belongs to processor goroutine i and ring PPN to the
	// frame-handler goroutine, so size it with
	// trace.Config{Procs: PPN + 1} and no link rings. The runtime has
	// no virtual clock; events carry wall nanoseconds since the
	// tracer's start in VT, which trace.Merge aligns across ranks. Nil
	// disables tracing at one branch per site.
	Tracer *trace.Tracer
}

// Run executes app across the mesh from this node's perspective: it
// installs the protocol handler on m, runs PPN processor goroutines
// through app.Body, and participates in the run-ending handshake. On
// rank 0 it additionally verifies the final shared memory against the
// sequential reference and broadcasts TBye; other ranks block until
// the TBye arrives. The caller retains ownership of m and must Close
// it after Run returns.
func Run(app apps.App, cfg Config, m transport.Messenger) error {
	if cfg.Nodes != m.Peers() {
		return fmt.Errorf("mprun: config says %d nodes but the mesh has %d", cfg.Nodes, m.Peers())
	}
	if cfg.Rank != m.Self() {
		return fmt.Errorf("mprun: config says rank %d but the mesh says %d", cfg.Rank, m.Self())
	}
	if cfg.PPN <= 0 {
		return fmt.Errorf("mprun: need at least one processor per node, got %d", cfg.PPN)
	}
	n := newNode(cfg, m, app.Shape())
	m.SetHandler(n.handle)

	var wg sync.WaitGroup
	for local := 0; local < cfg.PPN; local++ {
		wg.Add(1)
		go func(local int) {
			defer wg.Done()
			p := n.newProc(local)
			app.Body(p)
			// Publish any writes the body left unflushed and hold every
			// node here until the whole cluster is done.
			p.Barrier()
		}(local)
	}
	wg.Wait()

	if cfg.Rank == 0 {
		verr := app.Verify(&memView{p: n.newProc(-1)})
		for r := 0; r < cfg.Nodes; r++ {
			if err := n.m.Send(r, wire.Frame{Type: wire.TBye}); err != nil {
				return fmt.Errorf("mprun: broadcasting bye: %w", err)
			}
		}
		n.mu.Lock()
		for !n.bye {
			n.cond.Wait()
		}
		n.mu.Unlock()
		if verr != nil {
			return fmt.Errorf("mprun: %s failed verification: %w", app.Name(), verr)
		}
		return nil
	}
	n.mu.Lock()
	for !n.bye {
		n.cond.Wait()
	}
	n.mu.Unlock()
	return nil
}

// cpage is a node's view of one page: its cached copy of a page homed
// elsewhere, or the master copy itself on the page's home.
type cpage struct {
	// data is the copy's frame, allocated at the first fetch and from
	// then on only ever updated in place, word-atomically: a processor
	// that kept the slice from an earlier look reads whole words, stale
	// at worst, whatever the handler is doing to the page. On the home
	// rank it is hpage.data, valid from the start and never twinned.
	data []int64
	// twin is the pristine copy taken when the first processor joins
	// writers, nil while writers is zero. It survives invalidation: a
	// refetch merges the fresh copy under it.
	twin []int64
	// writers counts the node's processors that have write-faulted on
	// the page since their last release, each with the page on its dirty
	// list and possibly a writable TLB entry for it. A processor leaves
	// only by its own flush of the page; the flush that takes the last
	// one off drops the twin. Homed pages have no twin and keep no count.
	writers int
	// reqID is the correlation id of the page request in flight, 0 when
	// there is none. Only the reply echoing it is accepted.
	reqID int64
	valid bool

	// The give-up rule's evidence, all of it what this node saw happen
	// to this page. noticed: a write notice has invalidated a valid
	// copy, so others write the page between this node's releases.
	// gaveUp: the page's last diff gave the copy up. keep: a copy
	// refetched after a give-up took another notice before the node's
	// next diff of the page — giving up bought a fetch and spared no
	// notice — so the node keeps its copy from then on.
	noticed, gaveUp, keep bool
}

// hpage is the master copy at a page's home with its sharer set,
// indexed by rank (the home's own entry stays false: it never fetches).
// Both are nil for a page homed elsewhere.
type hpage struct {
	data    []int64
	sharers []bool
	// unacked counts the write notices for this page that are out and
	// not yet acknowledged; acks lists the releases — remote diffs and
	// this node's own flushes — to complete when it reaches zero. A
	// release that finds notices out waits for them even if it sent
	// none itself: the copies they are about to invalidate are stale
	// with respect to its writes too.
	unacked int
	acks    []flushAck
}

// flushAck is one release waiting on a page's notices: the flushing
// rank and its flush token.
type flushAck struct {
	flusher int
	token   int64
}

type waiter struct {
	node int
	gpid int64
}

// node is one process's share of the DSM: page cache, homed pages, and
// (on rank 0) the coordinator state. The handler goroutine and the
// processor goroutines synchronize on mu/cond.
type node struct {
	cfg       Config
	m         transport.Messenger
	tr        *trace.Tracer
	pageWords int
	nPages    int
	// pageShift is log2 of pageWords, or -1 when that is not a power of
	// two; pageMask the matching offset mask.
	pageShift, pageMask int

	// epoch counts invalidations of cached pages (write notices and
	// copies given up at a flush); it is bumped with mu held. A TLB entry
	// filled at epoch e serves loads, and stores if it is writable,
	// without mu for as long as epoch still reads e. The padding keeps
	// the processors' polling of it off the cache line mu and the
	// counters below dirty.
	epoch atomic.Uint64
	_     [56]byte

	mu   sync.Mutex
	cond *sync.Cond

	// cache and home are indexed by page number.
	cache []cpage
	home  []hpage
	// twins holds released twins for reuse; the handler borrows one for
	// the snapshot a page reply carries.
	twins [][]int64
	// runOffs and runWords are flush's scratch for one page's runs.
	runOffs  []int32
	runWords []int64
	// notify is the handler's scratch for one diff's notice targets.
	notify []int
	// flushOut counts this node's flushed pages still propagating: diffs
	// whose TFlushAck has not arrived and homed pages whose notices are
	// not all acknowledged. A release operation completes only when it
	// reaches zero, so one processor's release can never outrun another
	// local processor's still-propagating invalidations (the node-grain
	// cache means a flush carries every local processor's writes).
	flushOut int
	tokenSeq int64
	// corrSeq numbers this node's page requests; rank<<32|seq goes in
	// Frame.C so the home's echoed reply can be matched to the request
	// (cpage.reqID here, transport.FrameStats at the messenger seam).
	corrSeq int64

	flags   []bool
	granted map[int64]bool // gpid -> lock grant delivered
	barRel  int64          // highest released barrier generation
	bye     bool

	// Coordinator state, used on rank 0 only.
	lockHeld map[int64]bool
	lockQ    map[int64][]waiter
	arrivals map[int64]int
}

// newNode builds rank cfg.Rank's share of a shared space of the given
// shape: the master copies of the pages it homes, which its processors
// use directly, and an empty cache for the rest.
func newNode(cfg Config, m transport.Messenger, shape apps.Shape) *node {
	words := shape.SharedWords
	if words == 0 {
		words = 1
	}
	pageWords := cfg.PageWords
	if pageWords <= 0 {
		pageWords = apps.PageWords
	}
	n := &node{
		cfg:       cfg,
		m:         m,
		tr:        cfg.Tracer,
		pageWords: pageWords,
		nPages:    (words + pageWords - 1) / pageWords,
		pageShift: -1,
		flags:     make([]bool, shape.Flags),
		notify:    make([]int, 0, cfg.Nodes),
		granted:   make(map[int64]bool),
		lockHeld:  make(map[int64]bool),
		lockQ:     make(map[int64][]waiter),
		arrivals:  make(map[int64]int),
	}
	if pageWords&(pageWords-1) == 0 {
		n.pageShift = bits.TrailingZeros(uint(pageWords))
		n.pageMask = pageWords - 1
	}
	n.cond = sync.NewCond(&n.mu)
	n.cache = make([]cpage, n.nPages)
	n.home = make([]hpage, n.nPages)
	for p := cfg.Rank; p < n.nPages; p += cfg.Nodes {
		n.home[p] = hpage{data: make([]int64, pageWords), sharers: make([]bool, cfg.Nodes)}
		n.cache[p] = cpage{data: n.home[p].data, valid: true}
	}
	return n
}

func (n *node) homeOf(page int) int { return page % n.cfg.Nodes }

// split returns addr's page number and in-page offset.
func (n *node) split(addr int) (page, off int) {
	if n.pageShift >= 0 {
		// The mask tells the compiler the count is in range, which saves
		// the access path its oversized-shift guard.
		return addr >> (uint(n.pageShift) & 63), addr & n.pageMask
	}
	return addr / n.pageWords, addr % n.pageWords
}

// wallNow returns the tracer-relative wall clock, or 0 when untraced.
func (n *node) wallNow() int64 {
	if n.tr == nil {
		return 0
	}
	return n.tr.WallNow()
}

// emit records an instant on ring's track (processor goroutines own
// rings 0..PPN-1, the frame handler ring PPN; ring -1 is dropped).
// Holding n.mu while emitting is fine — Ring.Emit is a handful of
// atomic stores — but each ring must keep its single producer.
func (n *node) emit(ring int, k trace.Kind, page int, arg, arg2 int64) {
	if n.tr == nil {
		return
	}
	now := n.tr.WallNow()
	n.tr.EmitProc(ring, trace.Event{
		Kind: k, Proc: int32(ring), Node: int32(n.cfg.Rank),
		Page: int32(page), VT: now, Arg: arg, Arg2: arg2,
	})
}

// span records an interval that began at startNS (a wallNow stamp) and
// ends now.
func (n *node) span(ring int, k trace.Kind, page int, startNS, arg, arg2 int64) {
	if n.tr == nil {
		return
	}
	now := n.tr.WallNow()
	n.tr.EmitProc(ring, trace.Event{
		Kind: k, Proc: int32(ring), Node: int32(n.cfg.Rank),
		Page: int32(page), VT: startNS, Dur: now - startNS, Arg: arg, Arg2: arg2,
	})
}

func (n *node) send(to int, f wire.Frame) {
	if err := n.m.Send(to, f); err != nil {
		// A failed send is unrecoverable mid-protocol: peers would hang
		// on state that can no longer arrive. Fail loudly.
		panic(fmt.Sprintf("mprun: rank %d: %v", n.cfg.Rank, err))
	}
}

// homed returns the home copy of the page f names. A page this rank
// does not home, or one outside the space, is a peer's protocol error
// and panics naming both: with a dense table an unchecked page number
// off the wire would index memory.
func (n *node) homed(from int, f wire.Frame) *hpage {
	if f.A < 0 || f.A >= int64(n.nPages) || n.homeOf(int(f.A)) != n.cfg.Rank {
		panic(fmt.Sprintf("mprun: rank %d asked for page %d, homed on rank %d (%v frame from rank %d, %d pages)",
			n.cfg.Rank, f.A, f.A%int64(n.cfg.Nodes), f.Type, from, n.nPages))
	}
	return &n.home[f.A]
}

// cached returns this node's copy of the page f names, panicking on a
// page number outside the space or a page this rank homes: its master
// copy is nobody's to refresh or invalidate.
func (n *node) cached(from int, f wire.Frame) *cpage {
	if f.A < 0 || f.A >= int64(n.nPages) {
		panic(fmt.Sprintf("mprun: rank %d received a %v frame from rank %d for page %d of %d",
			n.cfg.Rank, f.Type, from, f.A, n.nPages))
	}
	if n.home[f.A].data != nil {
		panic(fmt.Sprintf("mprun: rank %d received a %v frame from rank %d for page %d, which it homes",
			n.cfg.Rank, f.Type, from, f.A))
	}
	return &n.cache[f.A]
}

// checkDiff panics unless f's (start, count) pairs stay inside a page,
// each begin at or past the end of the one before, and together cover
// exactly f.Words, and its give-up mark is 0 or 1.
func (n *node) checkDiff(from int, f wire.Frame) {
	total, end, ok := 0, 0, len(f.Offs)%2 == 0 && (f.C == 0 || f.C == 1)
	for i := 0; ok && i < len(f.Offs); i += 2 {
		start, count := int(f.Offs[i]), int(f.Offs[i+1])
		ok = start >= end && count > 0 && start+count <= n.pageWords
		end = start + count
		total += count
	}
	if !ok || total != len(f.Words) {
		panic(fmt.Sprintf("mprun: rank %d received a malformed diff of page %d from rank %d: runs %v over %d words of a %d-word page, give-up mark %d",
			n.cfg.Rank, f.A, from, f.Offs, len(f.Words), n.pageWords, f.C))
	}
}

// handle processes one incoming frame. The Messenger delivers frames
// single-threaded, so this is the only goroutine mutating home and
// coordinator state. Frames are validated before mu is taken; their
// slices are the Messenger's again once handle returns, and every case
// is done with them by then.
func (n *node) handle(from int, f wire.Frame) {
	// A frame's slices belong to its type: a diff defines Offs and
	// Words, a page reply Words, nothing else any. One this protocol
	// would drop on the floor — a batched notice's extra Pages, say —
	// is refused, not ignored.
	hasOffs := f.Type == wire.TDiff
	hasWords := hasOffs || f.Type == wire.TPageReply
	if len(f.Pages) != 0 || len(f.Offs) != 0 && !hasOffs || len(f.Words) != 0 && !hasWords {
		panic(fmt.Sprintf("mprun: rank %d received a %v frame from rank %d carrying %d pages, %d offsets and %d words, which the type does not define",
			n.cfg.Rank, f.Type, from, len(f.Pages), len(f.Offs), len(f.Words)))
	}
	switch f.Type {
	case wire.TPageReq:
		hp := n.homed(from, f)
		n.mu.Lock()
		hp.sharers[from] = true
		// The reply is a snapshot, taken word-atomically into a borrowed
		// twin: home processors store to the master without mu, and Send
		// reads its frame plainly. It echoes the requester's correlation
		// id so the requester, and its transport layer, can pair it with
		// the request, and it goes out before mu is released: a home
		// processor's flush sends notices under mu, so one for a store
		// the snapshot missed cannot reach the requester ahead of it.
		snap := n.takeTwin(hp.data)
		n.send(from, wire.Frame{Type: wire.TPageReply, A: f.A, C: f.C, Words: snap})
		n.twins = append(n.twins, snap)
		n.mu.Unlock()

	case wire.TPageReply:
		cp := n.cached(from, f)
		if len(f.Words) != n.pageWords {
			panic(fmt.Sprintf("mprun: rank %d received a %d-word reply for page %d from rank %d, want %d words",
				n.cfg.Rank, len(f.Words), f.A, from, n.pageWords))
		}
		n.mu.Lock()
		// A reply to anything but the latest request was copied at the
		// home before a diff this node has flushed since: drop it.
		if cp.reqID != 0 && f.C == cp.reqID {
			switch {
			case cp.data == nil:
				cp.data = make([]int64, n.pageWords)
				diff.CopyIn(cp.data, f.Words)
			case cp.twin == nil:
				diff.Refresh(cp.data, f.Words)
			default:
				// Unflushed local writes: take only what changed remotely.
				diff.Incoming(cp.data, cp.twin, f.Words)
			}
			cp.valid = true
			cp.reqID = 0
		}
		n.mu.Unlock()
		n.cond.Broadcast()

	case wire.TDiff:
		hp := n.homed(from, f)
		n.checkDiff(from, f)
		n.mu.Lock()
		// Word-atomically: this node's processors read and write the
		// master without the lock.
		diff.ApplyRuns(hp.data, f.Offs, f.Words)
		// Every other copy out there is now stale: those sharers restart
		// from a fresh fetch. The flusher's copy has the words already and
		// stays registered unless the diff says it was given up.
		notify := n.notify[:0]
		for s, sharing := range hp.sharers {
			if sharing && s != from {
				notify = append(notify, s)
				hp.sharers[s] = false
			}
		}
		if f.C == 1 {
			hp.sharers[from] = false
		}
		hp.unacked += len(notify)
		fenced := hp.unacked > 0
		if fenced {
			hp.acks = append(hp.acks, flushAck{flusher: from, token: f.B})
		}
		n.mu.Unlock()
		n.emit(n.cfg.PPN, trace.EvDiffIn, int(f.A), int64(len(f.Words)), int64(from))
		if !fenced {
			n.send(from, wire.Frame{Type: wire.TFlushAck, A: f.A, B: f.B})
			return
		}
		for _, s := range notify {
			n.emit(n.cfg.PPN, trace.EvNoticeSend, int(f.A), int64(s), 0)
			n.send(s, wire.Frame{Type: wire.TWriteNotice, A: f.A, B: f.B})
		}

	case wire.TWriteNotice:
		cp := n.cached(from, f)
		n.mu.Lock()
		var invalidated int64
		if cp.valid {
			invalidated = 1
			cp.valid = false
			cp.noticed = true
			if cp.gaveUp {
				cp.keep = true
			}
			n.epoch.Add(1)
		}
		n.mu.Unlock()
		n.emit(n.cfg.PPN, trace.EvNoticeApply, int(f.A), invalidated, int64(from))
		n.send(from, wire.Frame{Type: wire.TNoticeAck, A: f.A, B: f.B})

	case wire.TNoticeAck:
		hp := n.homed(from, f)
		n.mu.Lock()
		if hp.unacked == 0 {
			n.mu.Unlock()
			panic(fmt.Sprintf("mprun: rank %d received a notice ack from rank %d for page %d, token %#x, which awaits none",
				n.cfg.Rank, from, f.A, f.B))
		}
		released := false
		if hp.unacked--; hp.unacked == 0 {
			for _, a := range hp.acks {
				if a.flusher == n.cfg.Rank {
					n.flushOut--
					released = true
				} else {
					n.send(a.flusher, wire.Frame{Type: wire.TFlushAck, A: f.A, B: a.token})
				}
			}
			hp.acks = hp.acks[:0]
		}
		n.mu.Unlock()
		if released {
			n.cond.Broadcast()
		}

	case wire.TFlushAck:
		n.mu.Lock()
		if n.flushOut <= 0 {
			// Taken, it would let the node's next release skip its fence.
			n.mu.Unlock()
			panic(fmt.Sprintf("mprun: rank %d received a flush ack from rank %d for page %d, token %#x, but awaits none",
				n.cfg.Rank, from, f.A, f.B))
		}
		n.flushOut--
		n.mu.Unlock()
		n.cond.Broadcast()

	case wire.TBarArrive:
		n.mu.Lock()
		n.arrivals[f.A]++
		release := n.arrivals[f.A] == n.cfg.Nodes*n.cfg.PPN
		if release {
			delete(n.arrivals, f.A)
		}
		n.mu.Unlock()
		if release {
			for r := 0; r < n.cfg.Nodes; r++ {
				n.send(r, wire.Frame{Type: wire.TBarRelease, A: f.A})
			}
		}

	case wire.TBarRelease:
		n.mu.Lock()
		if f.A > n.barRel {
			n.barRel = f.A
		}
		n.mu.Unlock()
		n.cond.Broadcast()

	case wire.TLockReq:
		n.mu.Lock()
		var grant bool
		if !n.lockHeld[f.A] {
			n.lockHeld[f.A] = true
			grant = true
		} else {
			n.lockQ[f.A] = append(n.lockQ[f.A], waiter{node: from, gpid: f.B})
		}
		n.mu.Unlock()
		if grant {
			n.send(from, wire.Frame{Type: wire.TLockGrant, A: f.A, B: f.B})
		}

	case wire.TLockGrant:
		n.mu.Lock()
		n.granted[f.B] = true
		n.mu.Unlock()
		n.cond.Broadcast()

	case wire.TLockRelease:
		n.mu.Lock()
		var next waiter
		var grant bool
		if q := n.lockQ[f.A]; len(q) > 0 {
			next, n.lockQ[f.A] = q[0], q[1:]
			grant = true
		} else {
			n.lockHeld[f.A] = false
		}
		n.mu.Unlock()
		if grant {
			n.send(next.node, wire.Frame{Type: wire.TLockGrant, A: f.A, B: next.gpid})
		}

	case wire.TFlagSet:
		if f.A < 0 || f.A >= int64(len(n.flags)) {
			panic(fmt.Sprintf("mprun: rank %d received a %v frame from rank %d for flag %d of %d",
				n.cfg.Rank, f.Type, from, f.A, len(n.flags)))
		}
		n.mu.Lock()
		n.flags[f.A] = true
		n.mu.Unlock()
		n.cond.Broadcast()

	case wire.TBye:
		n.mu.Lock()
		n.bye = true
		n.mu.Unlock()
		n.cond.Broadcast()

	default:
		panic(fmt.Sprintf("mprun: rank %d received unexpected %v frame", n.cfg.Rank, f.Type))
	}
}

// ensureLocked makes page's cached copy valid, requesting it from its
// home as needed; called and returns with n.mu held. ring is the
// calling goroutine's trace ring (-1 from the verification view). The
// processor that sends the request records the fetch as an EvPageFetch
// span from request to reply; pile-in waiters record only their fault
// span. A flush that publishes the page's twin while a request is in
// flight clears reqID, and the waiter asks again behind the diff.
func (n *node) ensureLocked(ring, page int) {
	cp := &n.cache[page]
	var t0 int64
	sent := false
	for !cp.valid {
		if cp.reqID == 0 {
			t0 = n.wallNow()
			sent = true
			n.corrSeq++
			cp.reqID = int64(n.cfg.Rank)<<32 | n.corrSeq
			n.send(n.homeOf(page), wire.Frame{Type: wire.TPageReq, A: int64(page), C: cp.reqID})
		}
		n.cond.Wait()
	}
	if sent {
		n.span(ring, trace.EvPageFetch, page, t0,
			int64(n.pageWords)*transport.WordBytes, int64(n.homeOf(page)))
	}
}

// takeTwin returns a page-sized buffer from the twin pool holding a
// word-atomic copy of data. Called with n.mu held; the caller appends
// the buffer to n.twins when it is done with it.
func (n *node) takeTwin(data []int64) []int64 {
	var t []int64
	if k := len(n.twins); k > 0 {
		t, n.twins = n.twins[k-1], n.twins[:k-1]
	} else {
		t = make([]int64, n.pageWords)
	}
	diff.CopyIn(t, data)
	return t
}

// tlbSize is the number of direct-mapped entries in each processor's
// software TLB, as in internal/core: sixteen cover the applications'
// working rows without conflict.
const (
	tlbSize = 16
	tlbMask = tlbSize - 1
)

// tlbEntry caches one page's frame in plain fields owned by the
// accessing goroutine. It was filled under n.mu while the node's copy
// was valid, and stands while its epoch tag equals n.epoch: no copy has
// been invalidated since, so the frame is still the node's valid copy.
// writable additionally says the processor is on its own dirty list for
// the page — and, for a cached page, on the page's writer count, which
// is what keeps the twin its stores will be diffed against alive.
type tlbEntry struct {
	page     int // -1 when empty
	frame    []int64
	epoch    uint64
	writable bool
}

// proc is one processor goroutine's view of the DSM; it implements
// apps.Proc. local is the node-relative index, which doubles as the
// goroutine's trace ring (-1 for the verification view, which owns
// none).
type proc struct {
	n      *node
	gpid   int
	local  int
	barGen int64

	tlb [tlbSize]tlbEntry

	// dirty is the processor's private dirty list: the pages it has
	// write-faulted on since its last release, in fault order. dirtyIn
	// mirrors membership, indexed by page. Both change only on the
	// processor's own goroutine, under n.mu.
	dirty   []int
	dirtyIn []bool
}

var _ apps.Proc = (*proc)(nil)

func (n *node) newProc(local int) *proc {
	p := &proc{n: n, gpid: n.cfg.Rank*n.cfg.PPN + local, local: local, dirtyIn: make([]bool, n.nPages)}
	for i := range p.tlb {
		p.tlb[i].page = -1
	}
	return p
}

func (p *proc) ID() int     { return p.gpid }
func (p *proc) NProcs() int { return p.n.cfg.Nodes * p.n.cfg.PPN }

// fillLocked caches page's frame in its TLB slot. Called with n.mu held
// and the node's copy valid, so the epoch it records is one the copy is
// valid at.
func (p *proc) fillLocked(page int) *tlbEntry {
	e := &p.tlb[page&tlbMask]
	*e = tlbEntry{page: page, frame: p.n.cache[page].data, epoch: p.n.epoch.Load(), writable: p.dirtyIn[page]}
	return e
}

// readEntry returns a TLB entry good for loading from page: the cached
// one on a hit, else one filled under n.mu, after a fetch if the node's
// copy is invalid. A load through it that races an invalidation may find
// a refetch already rewriting the frame; frames are rewritten
// word-atomically, so it reads whole words, each no older than the
// processor's last acquire.
func (p *proc) readEntry(page int) *tlbEntry {
	e := &p.tlb[page&tlbMask]
	if e.page == page && e.epoch == p.n.epoch.Load() {
		return e
	}
	n := p.n
	var t0 int64
	n.mu.Lock()
	faulted := !n.cache[page].valid
	if faulted {
		t0 = n.wallNow()
		n.ensureLocked(p.local, page)
	}
	e = p.fillLocked(page)
	n.mu.Unlock()
	if faulted {
		n.span(p.local, trace.EvReadFault, page, t0, 0, 0)
	}
	return e
}

// writableLocked is the write fault: it returns a writable TLB entry
// for page, with the node's copy valid, the page on the processor's
// dirty list and, away from the page's home, the processor on the
// page's writer count and the page twinned. Every fault is recorded —
// a span when it had to fetch, an instant when the copy was valid or
// the master — so a trace shows each processor that wrote a page, its
// home's included. Called and returns with n.mu held.
func (p *proc) writableLocked(page int) *tlbEntry {
	n := p.n
	cp := &n.cache[page]
	fetched := !cp.valid
	if fetched {
		t0 := n.wallNow()
		n.ensureLocked(p.local, page)
		n.span(p.local, trace.EvWriteFault, page, t0, 0, 0)
	}
	if !p.dirtyIn[page] {
		if !fetched {
			n.emit(p.local, trace.EvWriteFault, page, 0, 0)
		}
		p.dirtyIn[page] = true
		p.dirty = append(p.dirty, page)
		if n.home[page].data == nil {
			if cp.writers == 0 {
				cp.twin = n.takeTwin(cp.data)
			}
			cp.writers++
		}
	}
	return p.fillLocked(page)
}

// Load repeats readEntry's hit test because readEntry is too big to
// inline, and the call would cost a hit a fifth of its time.
func (p *proc) Load(addr int) int64 {
	page, off := p.n.split(addr)
	e := &p.tlb[page&tlbMask]
	if e.page != page || e.epoch != p.n.epoch.Load() {
		e = p.readEntry(page)
	}
	return atomic.LoadInt64(&e.frame[off])
}

// Store writes one word without the node mutex on a hit; a miss is the
// write fault. No flush waits for the store to land: until the
// processor's own next release it is on the page's writer count, so the
// page keeps a twin that lacks the word, and whichever flush scans the
// page after the store diffs it — a sibling's, or its own. The store is
// atomic because siblings scan, snapshot and load the frame meanwhile.
func (p *proc) Store(addr int, v int64) {
	page, off := p.n.split(addr)
	e := &p.tlb[page&tlbMask]
	if e.page != page || !e.writable || e.epoch != p.n.epoch.Load() {
		p.n.mu.Lock()
		e = p.writableLocked(page)
		p.n.mu.Unlock()
	}
	atomic.StoreInt64(&e.frame[off], v)
}

func (p *proc) LoadF(addr int) float64 {
	return math.Float64frombits(uint64(p.Load(addr)))
}

func (p *proc) StoreF(addr int, v float64) {
	p.Store(addr, int64(math.Float64bits(v)))
}

// LoadFRow and StoreFRow clip the row to page segments and pay the TLB
// check or the fault bookkeeping once per segment.

func (p *proc) LoadFRow(dst []float64, addr int) {
	for len(dst) > 0 {
		page, off := p.n.split(addr)
		run := min(p.n.pageWords-off, len(dst))
		seg := p.readEntry(page).frame[off : off+run]
		for i := range seg {
			dst[i] = math.Float64frombits(uint64(atomic.LoadInt64(&seg[i])))
		}
		dst = dst[run:]
		addr += run
	}
}

// StoreFRow holds n.mu across each segment so that its stores can be
// plain: the mutex orders them against every flush's scan, every reply's
// snapshot and every diff the handler applies, which an atomic store per
// word would otherwise have to (and a row kernel stores millions). They
// are not ordered against a sibling's lock-free loads, and a load of a
// word while another processor stores it is a data race in the
// application.
func (p *proc) StoreFRow(addr int, src []float64) {
	n := p.n
	for len(src) > 0 {
		page, off := n.split(addr)
		run := min(n.pageWords-off, len(src))
		n.mu.Lock()
		seg := p.writableLocked(page).frame[off : off+run]
		for i, v := range src[:run] {
			seg[i] = int64(math.Float64bits(v))
		}
		n.mu.Unlock()
		src = src[run:]
		addr += run
	}
}

// flush publishes every page on the processor's dirty list, takes the
// processor off each, and waits until all stale copies of each have
// been invalidated. It is the release operation's write-back; the
// caller performs the matching release message only after flush
// returns. A page homed here was written in place, so publishing it is
// a write notice to each remote sharer and nothing when there is none;
// any other page goes to its home as a diff against its twin, which
// carries every local processor's words so far. The fence span covers
// diff construction through the last acknowledgement and is recorded
// only when the release actually sent or waited on something.
func (p *proc) flush() {
	n := p.n
	n.mu.Lock()
	t0 := n.wallNow()
	n.tokenSeq++
	token := int64(n.cfg.Rank)<<32 | n.tokenSeq
	slices.Sort(p.dirty)
	sent := 0
	wake := false
	for _, page := range p.dirty {
		// Off the page: the processor's next store to it faults.
		p.dirtyIn[page] = false
		if e := &p.tlb[page&tlbMask]; e.page == page {
			e.writable = false
		}
		if hp := &n.home[page]; hp.data != nil {
			for s, sharing := range hp.sharers {
				if sharing {
					hp.sharers[s] = false
					hp.unacked++
					n.emit(p.local, trace.EvNoticeSend, page, int64(s), 0)
					n.send(s, wire.Frame{Type: wire.TWriteNotice, A: int64(page), B: token})
				}
			}
			if hp.unacked > 0 {
				hp.acks = append(hp.acks, flushAck{flusher: n.cfg.Rank, token: token})
				sent++
			}
			continue
		}
		cp := &n.cache[page]
		var lo, hi int
		n.runOffs, n.runWords, lo, hi = diff.AppendRuns(n.runOffs[:0], n.runWords[:0], cp.data, cp.twin)
		cp.writers--
		last := cp.writers == 0
		if last {
			n.twins = append(n.twins, cp.twin)
			cp.twin = nil
		}
		if len(n.runWords) == 0 {
			// Only silent stores: the home has nothing to learn.
			continue
		}
		giveUp := int64(0)
		switch {
		case !cp.valid:
			// Invalidated under the stores and not refetched since. A
			// fetch in flight may have been copied at the home ahead of
			// this diff, and its reply would put older words over these —
			// in the frame, and in the twin if one is left: disown it, so
			// that the reply is dropped and the waiter asks again behind
			// the diff.
			if cp.reqID != 0 {
				cp.reqID = 0
				wake = true
			}
		case last && cp.noticed && !cp.keep:
			// Others write this page between our releases, so the copy
			// would be invalidated before we next use it and cost its
			// writer a notice round trip: give it up now, in the diff.
			// Not while a sibling is still writing it, though: that one
			// would refetch at once.
			cp.valid = false
			n.epoch.Add(1)
			giveUp = 1
		}
		// Otherwise the copy stays valid: it has every word the diff
		// carries, and the home keeps us registered, so whoever writes
		// the page next invalidates it like any other sharer's.
		cp.gaveUp = giveUp == 1
		sent++
		n.emit(p.local, trace.EvDiffOut, page, int64(len(n.runWords)), trace.PackWordSpan(lo, hi))
		// Send only borrows the frame's slices, so the diff goes out
		// from the scratch and the next page's runs may overwrite it.
		n.send(n.homeOf(page), wire.Frame{
			Type: wire.TDiff, A: int64(page), B: token, C: giveUp,
			Offs: n.runOffs, Words: n.runWords,
		})
		if !last {
			// Siblings still store to the page without the mutex, so the
			// twin stays, brought up to what the diff carried
			// (flush-update): their releases then send only what is newer.
			// The words come from the scratch, not the frame: a store that
			// has landed since the scan is in no diff yet, and a twin that
			// took it from the frame would hide it from every later one.
			diff.ApplyRuns(cp.twin, n.runOffs, n.runWords)
		}
	}
	p.dirty = p.dirty[:0]
	n.flushOut += sent
	if wake {
		n.cond.Broadcast() // disowned fetches
	}
	// Wait for every outstanding flush of this node, not just our own
	// pages: a release may carry no dirty words itself yet must still
	// fence behind a sibling's diff in flight, which may be carrying
	// words of ours that the twin it updated then kept out of our own.
	fenced := n.flushOut > 0
	for n.flushOut > 0 {
		n.cond.Wait()
	}
	n.mu.Unlock()
	if fenced {
		n.span(p.local, trace.EvFlushFence, -1, t0, int64(sent), 0)
	}
}

// Compute is a no-op: the multi-process runtime runs in real time and
// charges no virtual clock.
func (p *proc) Compute(ns, busBytes int64) {}

// Poll and PollN are no-ops: requests are served by the handler
// goroutine, not by polling processors.
func (p *proc) Poll()         {}
func (p *proc) PollN(n int64) {}

// Lock acquires application lock i through the rank-0 coordinator.
func (p *proc) Lock(i int) {
	n := p.n
	t0 := n.wallNow()
	n.send(0, wire.Frame{Type: wire.TLockReq, A: int64(i), B: int64(p.gpid)})
	n.mu.Lock()
	for !n.granted[int64(p.gpid)] {
		n.cond.Wait()
	}
	delete(n.granted, int64(p.gpid))
	n.mu.Unlock()
	n.span(p.local, trace.EvLock, -1, t0, int64(i), 0)
}

// Unlock releases lock i: dirty pages are flushed before the grant can
// pass to the next holder.
func (p *proc) Unlock(i int) {
	n := p.n
	t0 := n.wallNow()
	p.flush()
	n.send(0, wire.Frame{Type: wire.TLockRelease, A: int64(i), B: int64(p.gpid)})
	n.span(p.local, trace.EvUnlock, -1, t0, int64(i), 0)
}

// SetFlag raises flag i for the whole cluster after flushing, so a
// woken waiter finds the protected data at its home.
func (p *proc) SetFlag(i int) {
	n := p.n
	t0 := n.wallNow()
	p.flush()
	for r := 0; r < n.cfg.Nodes; r++ {
		n.send(r, wire.Frame{Type: wire.TFlagSet, A: int64(i)})
	}
	n.span(p.local, trace.EvFlagSet, -1, t0, int64(i), 0)
}

// WaitFlag blocks until flag i is raised.
func (p *proc) WaitFlag(i int) {
	n := p.n
	t0 := n.wallNow()
	n.mu.Lock()
	for !n.flags[i] {
		n.cond.Wait()
	}
	n.mu.Unlock()
	n.span(p.local, trace.EvFlagWait, -1, t0, int64(i), 0)
}

// Barrier flushes and waits for every processor in the cluster.
func (p *proc) Barrier() {
	n := p.n
	t0 := n.wallNow()
	p.flush()
	p.barGen++
	n.send(0, wire.Frame{Type: wire.TBarArrive, A: p.barGen, B: int64(p.gpid)})
	n.mu.Lock()
	for n.barRel < p.barGen {
		n.cond.Wait()
	}
	n.mu.Unlock()
	n.span(p.local, trace.EvBarrier, -1, t0, p.barGen, 0)
}

// BeginInit and EndInit bracket the initialization epoch with the same
// barrier pairs the simulator engine uses, which is what makes proc
// 0's initialization writes visible everywhere before the body starts.
// There is no virtual clock to pause here.
func (p *proc) BeginInit() {
	p.Barrier()
	p.Barrier()
}

func (p *proc) EndInit() {
	p.Barrier()
	p.Barrier()
}

// Warmup runs f inside the engine's barrier bracket; with no virtual
// clock there is nothing to uncharge.
func (p *proc) Warmup(f func()) {
	p.Barrier()
	p.Barrier()
	f()
	p.Barrier()
	p.Barrier()
}

// memView is rank 0's post-run read of the shared space for Verify: it
// reads through the normal protocol — the pages rank 0 homes in place,
// the rest from whatever copies the closing barrier left valid or from
// their homes, where every final value is by then. It reads with ring
// -1 — the verification pass runs on the main goroutine, which owns no
// trace ring, so its events are dropped rather than corrupting a
// processor track.
type memView struct {
	p *proc
}

var _ apps.Memory = (*memView)(nil)

func (v *memView) Model() costs.Model { return v.p.n.cfg.Model }

func (v *memView) ReadShared(addr int) int64 { return v.p.Load(addr) }

func (v *memView) ReadSharedF(addr int) float64 {
	return v.p.LoadF(addr)
}
