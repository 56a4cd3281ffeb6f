// Package mprun is the multi-process DSM runtime: it runs the
// benchmark applications across separate OS processes connected by a
// transport.Messenger (the TCP mesh of transport/tcpchan, or the
// in-process mesh of transport/shmchan for tests), speaking the wire
// frames of transport/wire. Where the simulator engine (internal/core)
// models the paper's protocols against a virtual clock, mprun executes
// a real home-based software-coherence protocol with actual
// concurrency: pages live on homes placed by first touch, whose own
// processors work on the master copy in place, other writers twin a
// page at its first store and flush run-encoded diffs against the twin
// at release operations (internal/diff, paper Sections 2.2 and 2.5),
// homes eagerly invalidate sharers with write notices, or push the
// words they lack to copies that several writers falsely share, each
// lock is queued on a home rank of its own, and barriers on rank 0.
//
// # Protocol
//
// Each page has one home, which holds its master copy ("Page
// placement" says which rank that is).
//
// On the home, the node's view of the page is the master copy itself,
// valid from the start: its processors load and store it in place, with
// no fetch, twin or diff, and never send the node a frame about it. A
// processor's first store to it since its last release puts the page on
// that processor's dirty list; that is all its release needs to know.
//
// Elsewhere, a processor's first access to the page fetches a copy from
// the home (TPageReq/TPageReply; a refetch may carry only the words the
// node's frame lacks, see "Delta replies") and registers the node as a
// sharer.
// A processor's first store to it since its last release is a write
// fault: the page goes on the processor's dirty list and the processor
// on the page's writer count, and the first processor on the count
// copies the page to a pooled twin. Stores then go straight to the
// node's copy, which the node's processors share as they would a
// hardware-coherent frame.
//
// At every release operation (Unlock, Barrier, SetFlag, and once after
// the application body returns) a processor publishes the pages on its
// own dirty list, in ascending page order — first those homed elsewhere,
// then, once their diffs are acknowledged, those homed here ("Pushes") —
// and leaves their writer counts; its siblings' lists are theirs to
// publish. A cached page is
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
// every sharer but the flusher — a push, carrying the words the
// sharer's copy lacks, to a sharer that keeps its copy ("Pushes"), a
// plain notice, striking the sharer from the sharer set, to any other —
// and answers the flusher with a TFlushAck once no notice for the page
// is unacknowledged. A dirty page homed here needs no
// diff — the words are already in the master — so the flush itself
// sends the pushes and notices, to every sharer, and completes locally
// on the last TNoticeAck; with no sharer it sends nothing at all. Either
// kind of release also waits for notices a previous release of the page
// has out, though it sent none: the copies those are about to
// invalidate or update lack its words too. The release operation does
// not complete until every diff and notice of the node's — a sibling's
// diff may be carrying this processor's words — is acknowledged, so by
// the time a matching acquire can succeed anywhere, every stale copy has
// been invalidated or brought up to date: the same eager release
// consistency argument the paper's protocols make.
//
// Who holds a valid copy after a release: the home, always; the
// flusher, if its copy was valid when it flushed — it has every word
// the diff carries, it stays in the sharer set, and it is invalidated
// or pushed to like any other sharer by the next diff or home release
// that is not its own; every sharer that took a push; nobody else.
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
// page's latest request. It exists for two cases. A flush that publishes
// an invalid page while a sibling processor's request for the page is
// in flight disowns that request: the home may have copied the page
// ahead of the diff, and the reply — merged under a twin that now holds
// the flushed words, or installed with no twin at all — would replace
// the node's own flushed words with older ones that no notice would
// ever correct. The waiting processor asks again, behind the diff
// on the same ordered channel. A lock grant or push that drops its runs
// disowns a request in flight too ("Runs from a mask"). (A valid copy
// has no request in flight.)
//
// Replies are ordered before notices. A copy taken at the home and a
// notice or push for a later store travel to the requester on one
// ordered channel, and the requester relies on meeting them in that
// order: a notice that finds no valid copy is acknowledged and
// forgotten, and a push's runs, read from the master after the reply's
// words, are merged over them. The handler sends replies, and the pushes
// and notices of remote writers' diffs, under the node mutex; a home
// processor's flush sends its pushes and notices from the processor's
// goroutine, under the same mutex.
//
// # Page placement
//
// Page p starts out homed on rank p % nodes. Every rank keeps the home
// table, and it changes only at barriers: a page moves to the rank that
// first writes it after initialization, the paper's first-touch rule
// (Section 2.3) counting writes only, since only writes cost diffs.
//
// Placement opens on a node when its processors leave EndInit. From then
// on the write fault records each page the node writes and has not
// reported before, and the node's last local arrival at a barrier
// reports them to rank 0 in its TBarArrive, each with whether the node
// still holds a valid copy. Once every processor has arrived, rank 0
// places every reported page, and moves it if exactly one node wrote it,
// that node holds a valid copy, and it is not the home already. A placed
// page is not reported or moved again. A page nobody writes after
// EndInit keeps its first home, and a program that never calls EndInit
// keeps them all.
//
// No page data travels. At the decision every release fence of the
// interval has completed, so every diff and notice has been
// acknowledged, no fetch is in flight and no twin exists: the writer's
// valid copy equals the master. The TBarRelease lists the moves, and
// each rank applies them in its handler before it wakes its processors.
// The new home adopts its copy as the master, with an empty sharer set;
// every other rank, the old home among them, invalidates its copy and
// bumps its epoch. A release that moved pages is followed by one
// internal barrier before any processor returns: a rank's release and
// another rank's request travel on different channels, and the internal
// barrier is what keeps a request for a moved page from reaching a rank
// that has not applied the move.
//
// # Frame memory
//
// The runtime builds no buffer per frame and leaves the Messenger none
// to build: Send borrows a frame's slices until it returns and the
// handler borrows them until it returns (the transport.Messenger
// contract). A full page reply's Words are a snapshot of the master
// copy, taken word-atomically under the node mutex into a buffer
// borrowed from the twin pool and returned to it when Send is back —
// home processors store to the master without the mutex, so the copy
// itself cannot be lent. A run reply, and every diff of a release, goes
// out from the node's one run scratch, its words read word-atomically
// from the frame, and the scratch is overwritten for the next page as
// soon as Send is back; a lock grant's runs go out from it too, with the
// grant's page and count scratch, and so do a push's. All these sends
// happen under the node mutex (replies, grants and pushes for the
// ordering above). What arrives is copied where it belongs before the
// handler returns — a reply's or push's page or runs into the node's
// frame of the page, a diff's runs into the master, a grant's runs into
// the grantee's frames — and no slice of a received frame is kept.
//
// # Delta replies
//
// A reply need not carry the whole page: the home remembers, per page
// and per rank, which words of the master that rank's retained frame may
// lack, and a refetch carries only those, as runs (TPageReply.B = 1). It
// changes what a reply carries, never who holds a valid copy or how many
// frames a fetch costs.
//
// A rank's first fetch of a page is only recorded; its second starts
// the rank's mask at the home (homeDelta.stale), which is never dropped
// after. The marked words are all that may differ; a mask of every word
// is unknown. Into every mask go the runs of each diff from another rank
// (the flusher's own frame has its words) and the stores of the home's
// own processors. A home processor's write
// fault finds the page tracked if some rank's mask exists; its stores
// then set bits in a bitmap of its own (homeDelta.stores) — one atomic
// OR after each scalar store, a range per StoreFRow segment — which its
// release folds into every mask. An untracked interval sets no bits, so
// its release marks every word of every mask.
//
// A request asks for runs (TPageReq.B = 1) when the node holds a frame
// of the page and has accepted every reply it was sent since its last
// accepted one (cpage.synced): a reply the fetch-id rule drops — or a
// request it disowns, whose reply will be dropped — leaves the frame
// without words the home counted as delivered. The home answers such a
// request with the runs of the rank's mask when it can build them ("Runs
// from a mask"), and any other with the whole page; either way the
// rank's mask is left empty. A page's new home (see "Page placement")
// starts with no masks.
//
// # Runs from a mask
//
// Three frames carry runs a home builds from a rank's mask — a run
// reply, a push and a lock grant — and they share one builder, one take
// and one drop.
//
// The builder (maskRuns) covers the rank's mask and the store bitmaps of
// the page's tracked local writers: a superset of what the rank's frame
// lacks, read from the master under the node mutex. A store that lands
// after its bit is read is in its processor's next release, which
// notices the rank like any other sharer. It builds nothing when the
// rank has no mask, a local processor is in an untracked interval on the
// page, or the runs with their (start, count) headers are no smaller
// than the page, which an unknown mask's never are. When it builds, it
// empties the mask: the home counts the words as delivered.
//
// The take is diff.MergeRuns, diff.Incoming over the runs only: a word
// the node has modified locally (frame differs from twin) keeps its
// value, and the twin takes every run word; with no twin the runs are
// written as they are. The drop (dropRuns) leaves the frame without
// words the home counts as delivered, so it is no longer synced, and
// disowns a request in flight, whose reply the home builds from the mask
// the runs emptied: the waiter asks again, for the whole page.
//
// Each carrier adds its own conditions:
//   - A run reply answers a request that asks for runs. It is taken if
//     it echoes the page's latest request (the fetch-id rule), and then
//     makes the copy valid; any other reply leaves the frame unsynced.
//   - A push replaces a write notice to a rank whose last request
//     carried the keep mark, when there is at least one run ("Pushes").
//     It is taken into a copy that is valid, and so has no request in
//     flight, and has no diff unacknowledged; otherwise the node takes
//     it as a plain notice and drops the runs.
//   - A lock grant to another rank carries runs of each page of the
//     lock's last release still homed on the lock's home of which the
//     grantee is not a sharer, and makes it one (the grant rule). A
//     page's runs are taken into a frame that is synced and has no twin,
//     no request in flight and no diff unacknowledged, which becomes a
//     valid copy: local writes and a diff the master may not have yet
//     would each disagree with some run word, and a request in flight
//     would leave a valid copy waiting for a reply. Otherwise they are
//     dropped.
//
// # Pushes
//
// A kept copy (cpage.keep: giving it up bought a refetch and spared no
// notice) is refetched after every notice, and its home already knows
// which words it lacks: its mask. So a node says when it keeps its copy
// — its requests for the page carry the keep mark, TPageReq.B's second
// bit — and the home records, per page and rank, whether the rank's last
// request did (homeDelta.keep). Where the home would send such a rank a
// write notice, at a home processor's flush or for a remote writer's
// diff (three or more ranks), it pushes instead (publish): the notice
// carries the runs of the rank's mask ("Runs from a mask"), and the rank
// stays in the sharer set. With no runs it falls back to a plain notice,
// striking the rank.
//
// A copy that takes a push stays valid and no epoch is bumped: its
// processors' TLB entries stand, and a load may see the pushed words as
// soon as they land, as it may a refetch's. A copy with a diff
// unacknowledged drops the push, whose runs were read from a master that
// may not have the diff's words yet and would put older words over the
// node's own; an invalid copy has been given up or has dropped an
// earlier push, and lacks more than the runs carry. Either way the
// sharer answers with a TNoticeAck, so a push holds up the release that
// sent it exactly as a notice does.
//
// A release sends in two phases: first its diffs, and it waits for their
// acknowledgements; then its pushes and notices, and it waits again
// (flush). A peer's transport.Inbox then never holds one release's diffs
// and pushes at once, and neither does the recycler behind it, which
// keeps slices for the largest burst it has held. The release's
// EvFlushFence span covers both waits.
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
// StoreFRow — a cached one by scalar stores, diff.Refresh,
// diff.Incoming and diff.MergeRuns, a master copy by scalar stores and
// the handler's diff.ApplyRuns — so a load that races the handler may
// observe, word by word, either the copy it validated or a newer one,
// but never a torn word and never data older than its processor's last
// acquire: every acquire waits under the mutex, after the handler has
// bumped the epoch for each notice the matching release fenced on, and a
// master copy has the release's words before its TFlushAck is sent. It
// may not observe another processor's StoreFRow in flight: reading a
// word while it is being stored plainly is a data race in the
// application.
//
// Frames off the wire index those slices, so the handler range-checks
// page numbers, flag and lock ids, diff, reply, push and grant runs
// (checkRuns and checkGrant, on diff.RunsLen), give-up, request and form
// marks, reply lengths, a barrier frame's pages, marks and ranks and a
// lock release's or grant's pages, refuses a reply, notice or push for a
// page it homes, a run reply, push or grant runs for a page it holds no
// frame of, grant runs for a page it homes, a release listing a page
// homed elsewhere, an acknowledgement it does not await, a barrier frame
// at or from a rank other than 0, a lock frame at or from a rank other
// than the lock's home or naming a processor its rank does not host, a
// release of a lock by a processor that does not hold it, a grant to a
// processor that has not asked for the lock and a slice the frame's type
// does not define, and panics with the offending rank and frame rather
// than faulting. A processor passing a lock or flag id outside the
// application's panics likewise, naming itself, and so does a home
// processor unlocking a lock it does not hold.
//
// # Synchronization
//
// Lock i is homed on rank i % nodes, the rule pages start from, and its
// home keeps its holder and FIFO queue. Every processor records which
// lock it asks for before asking. A processor of the home takes and
// passes the lock under the node mutex and sends no frame, through the
// same request path a TLockReq takes; another rank's processor sends a
// TLockReq there and waits for a TLockGrant, and its Unlock,
// after its flush, sends a TLockRelease. Each release names the pages it
// published that are homed on the lock's home — a home processor's are
// kept in place — and a grant to another rank carries the words of those
// pages that the grantee's frames lack (the grant rule), so the next
// holder of a lock whose data is homed with it need not fetch. A release
// lists pages against the home table of the last barrier its processor
// left, which the lock's home may have moved past; a grant passes over a
// page no longer homed there.
//
// Rank 0 coordinates barriers (count the arrivals at the generation in
// progress, decide page moves, broadcast the release). Only one
// generation can be in flight there: no processor arrives at g+1 before
// rank 0 has counted all of g and released it.
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
// flushes, the notices and pushes a home processor's flush sends
// (EvNoticeSend, with the words a push carried in Arg2), the
// release-fence wait (EvFlushFence), and lock, flag, and barrier waits
// on each processor goroutine's ring, plus incoming diffs, the notices
// and pushes they cause and the home moves a barrier release applies
// (EvHomeMigrate) on the frame handler's ring (index PPN). Every
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
	// synced says the frame holds every word the home's last reply to
	// this node carried, so the next request may ask for the words it
	// lacks (TPageReq.B = 1). An accepted reply sets it; a dropped one,
	// or a flush disowning the request in flight, clears it. got is the
	// bytes the last accepted reply carried, for the fetch's trace span.
	synced bool
	got    int64

	// The give-up rule's evidence, all of it what this node saw happen
	// to this page. noticed: a write notice has invalidated a valid
	// copy, so others write the page between this node's releases.
	// gaveUp: the page's last diff gave the copy up. keep: a copy
	// refetched after a give-up took another notice before the node's
	// next diff of the page — giving up bought a fetch and spared no
	// notice — so the node keeps its copy from then on.
	noticed, gaveUp, keep bool
	// diffs counts this node's diffs of the page whose TFlushAck has not
	// arrived. A lock grant's runs are not installed while one is out:
	// they were read from a master that may not have its words yet. It
	// fits beside the flags, so a cpage is no bigger for it.
	diffs int32
}

// hpage is the master copy at a page's home with its sharer set and
// the ranks that have fetched it, both indexed by rank (the home's own
// entries stay false: it never fetches). All are nil for a page homed
// elsewhere.
type hpage struct {
	data    []int64
	sharers []bool
	// delta is the page's stale-word state ("Delta replies"), nil until
	// some rank fetches the page a second time. untracked counts the
	// local processors in an untracked dirty interval on the page: their
	// write fault found no delta, so their stores set no bits. Both sit
	// with data, which every write fault and release reads too.
	delta     *homeDelta
	untracked int
	// unacked counts the write notices for this page that are out and
	// not yet acknowledged; acks lists the releases — remote diffs and
	// this node's own flushes — to complete when it reaches zero. A
	// release that finds notices out waits for them even if it sent
	// none itself: the copies they are about to invalidate are stale
	// with respect to its writes too.
	unacked int
	acks    []flushAck
	fetched []bool
}

// newHpage returns the home state of a page whose master copy is data.
func newHpage(data []int64, nodes int) hpage {
	marks := make([]bool, 2*nodes)
	return hpage{data: data, sharers: marks[:nodes:nodes], fetched: marks[nodes:]}
}

// The marks a TPageReq carries in B.
const (
	// deltaMark: the frame is synced, so a run reply will do.
	deltaMark = 1
	// keepMark: the node keeps its copy of the page (cpage.keep), so the
	// home pushes to it ("Pushes").
	keepMark = 2
)

// homeDelta is what a page's home knows about the words other ranks'
// retained frames lack. stale[r] is rank r's mask, nil until r fetches
// the page a second time and never dropped after: the master's words
// that may differ from r's frame. A mask of every word is unknown: its
// runs are never smaller than the page. keep[r] says rank r's last
// request carried the keep mark, so its mask is pushed ("Pushes").
// stores[i] is local processor i's store bitmap for the tracked dirty
// interval it is in, nil when it is in none.
type homeDelta struct {
	stale  []wordMask
	keep   []bool
	stores []wordMask
}

// wordMask has one bit per word of a page.
type wordMask []uint64

// set marks word off. Atomic: a processor sets bits of its store bitmap
// without the node mutex while the handler reads them under it.
func (m wordMask) set(off int) { atomic.OrUint64(&m[off>>6], 1<<(off&63)) }

// setRange marks count words from start.
func (m wordMask) setRange(start, count int) {
	for end := start + count; start < end; {
		k, lo := start>>6, start&63
		hi := min(64, lo+end-start)
		atomic.OrUint64(&m[k], (^uint64(0)>>(64-(hi-lo)))<<lo)
		start += hi - lo
	}
}

// nextRun returns the first run of marked words at or after from in a
// page of size words, as [start, end); start is size when there is none.
func (m wordMask) nextRun(from, size int) (start, end int) {
	k := from >> 6
	if k >= len(m) {
		return size, size
	}
	w := m[k] &^ (1<<(from&63) - 1)
	for w == 0 {
		if k++; k == len(m) {
			return size, size
		}
		w = m[k]
	}
	start = k<<6 + bits.TrailingZeros64(w)
	w = ^m[k] &^ (1<<(start&63) - 1)
	for w == 0 {
		if k++; k == len(m) {
			return start, size
		}
		w = ^m[k]
	}
	return start, min(k<<6+bits.TrailingZeros64(w), size)
}

// flushAck is one release waiting on a page's notices: the flushing
// rank and its flush token.
type flushAck struct {
	flusher int
	token   int64
}

// waiter is a processor queued for a lock at the lock's home: its rank
// and its global processor id.
type waiter struct {
	node int
	gpid int64
}

// The marks for no lock: a processor that waits for none
// (node.wants), a lock that nobody holds (node.lockHolder).
const (
	noLock   = -1
	noHolder = -1
)

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
	// homes is the home table: homes[p] is the rank page p is homed on,
	// p % nodes until first-touch placement moves it. Only the handler
	// writes it, under mu, when it applies a barrier release's moves.
	homes []int
	// place is page placement's state of each page on this node, and
	// wrote the pages recorded in the current interval. placing opens
	// recording when the node's processors leave EndInit; barHere counts
	// the local arrivals at the barrier in progress; relMoved says the
	// latest barrier release moved pages, so an internal barrier follows.
	place    []placeState
	wrote    []int
	placing  bool
	barHere  int
	relMoved bool
	// reportPages and reportValid are the last local arrival's Pages
	// and Offs.
	reportPages, reportValid []int32
	// twins holds released twins for reuse; the handler borrows one for
	// the snapshot a full page reply carries. masks holds released store
	// bitmaps, cleared, and union is the scratch for the words one run
	// reply, grant page or push carries, used under mu; maskWords is a
	// mask's length.
	twins     [][]int64
	masks     []wordMask
	union     wordMask
	maskWords int
	// runOffs and runWords are the scratch for one page's runs: a
	// flush's diff, a run reply or a push, all built and sent under mu.
	runOffs  []int32
	runWords []int64
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

	flags []bool
	// wants[i] is the lock local processor i has asked for and not yet
	// been granted, noLock when none: a grant for anything else is
	// refused.
	wants  []int
	barRel int64 // highest released barrier generation
	bye    bool

	// Lock state, indexed by lock id and used for the locks this rank
	// homes ("Synchronization"). lockHolder is the holder's processor id,
	// noHolder when the lock is free, lockQ lists its waiters in arrival
	// order, and lockPages the pages its last release published that are
	// homed here, which a grant may carry. grantPages and grantOffs are
	// the scratch for a grant's Pages and Offs, built and sent under mu.
	lockHolder            []int64
	lockQ                 [][]waiter
	lockPages             [][]int32
	grantPages, grantOffs []int32

	// Coordinator state, used on rank 0 only. barCounting is the barrier
	// generation in progress and barCount its arrivals so far; like the
	// placement state below, both are the handler's alone.
	barCounting int64
	barCount    int
	// placed marks the pages whose placement is decided. writer is each
	// page's reporter in the barrier in progress (noWriter, a rank, or
	// manyWriters) and writerValid whether that reporter holds a valid
	// copy; reported lists the pages with a writer. movePages and
	// moveHomes are the release's Pages and Offs. All of it is the
	// handler's alone.
	placed               []bool
	writer               []int
	writerValid          []bool
	reported             []int
	movePages, moveHomes []int32
}

// placeState is one node's progress in placing a page: unplaced until
// the node first writes it after EndInit, recorded until the barrier
// that ends that interval reports it to rank 0, reported from then on.
type placeState uint8

const (
	unplaced placeState = iota
	recorded
	reported
)

// The coordinator's writer marks besides a rank.
const (
	noWriter    = -1
	manyWriters = -2
)

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
		cfg:         cfg,
		m:           m,
		tr:          cfg.Tracer,
		pageWords:   pageWords,
		nPages:      (words + pageWords - 1) / pageWords,
		pageShift:   -1,
		flags:       make([]bool, shape.Flags),
		wants:       slices.Repeat([]int{noLock}, cfg.PPN),
		lockHolder:  slices.Repeat([]int64{noHolder}, shape.Locks),
		lockQ:       make([][]waiter, shape.Locks),
		lockPages:   make([][]int32, shape.Locks),
		barCounting: 1,
	}
	if pageWords&(pageWords-1) == 0 {
		n.pageShift = bits.TrailingZeros(uint(pageWords))
		n.pageMask = pageWords - 1
	}
	n.maskWords = (pageWords + 63) / 64
	n.union = make(wordMask, n.maskWords)
	n.cond = sync.NewCond(&n.mu)
	n.cache = make([]cpage, n.nPages)
	n.home = make([]hpage, n.nPages)
	n.homes = make([]int, n.nPages)
	n.place = make([]placeState, n.nPages)
	for p := range n.homes {
		n.homes[p] = p % cfg.Nodes
	}
	for p := cfg.Rank; p < n.nPages; p += cfg.Nodes {
		n.home[p] = newHpage(make([]int64, pageWords), cfg.Nodes)
		n.cache[p] = cpage{data: n.home[p].data, valid: true}
	}
	if cfg.Rank == 0 {
		n.placed = make([]bool, n.nPages)
		n.writer = make([]int, n.nPages)
		n.writerValid = make([]bool, n.nPages)
		for p := range n.writer {
			n.writer[p] = noWriter
		}
	}
	return n
}

// homeOf returns page's home rank. Processors call it with mu held, or
// between barriers, when the table cannot change; the handler, which
// alone writes the table, also without.
func (n *node) homeOf(page int) int { return n.homes[page] }

// lockHome returns lock i's home rank, which keeps its queue.
func (n *node) lockHome(i int) int { return i % n.cfg.Nodes }

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
	where := "outside the space"
	if f.A >= 0 && f.A < int64(n.nPages) {
		if n.homeOf(int(f.A)) == n.cfg.Rank {
			return &n.home[f.A]
		}
		where = fmt.Sprintf("homed on rank %d", n.homeOf(int(f.A)))
	}
	panic(fmt.Sprintf("mprun: rank %d asked for page %d, %s (%v frame from rank %d, %d pages)",
		n.cfg.Rank, f.A, where, f.Type, from, n.nPages))
}

// viaRank0 panics unless r — the rank that receives f, or the one that
// sent it — is rank 0, the coordinator of barriers.
func (n *node) viaRank0(from int, f wire.Frame, r int) {
	if r != 0 {
		panic(fmt.Sprintf("mprun: rank %d received a %v frame from rank %d, but only rank 0 coordinates",
			n.cfg.Rank, f.Type, from))
	}
}

// lockAt returns the lock f names, panicking unless it is one of the
// application's, r — the rank that receives f, or the one that sent it
// — is its home, and f.B names a processor of rank host.
func (n *node) lockAt(from int, f wire.Frame, r, host int) int {
	if f.A < 0 || f.A >= int64(len(n.lockHolder)) {
		panic(fmt.Sprintf("mprun: rank %d received a %v frame from rank %d for lock %d of %d",
			n.cfg.Rank, f.Type, from, f.A, len(n.lockHolder)))
	}
	i := int(f.A)
	if home := n.lockHome(i); r != home {
		panic(fmt.Sprintf("mprun: rank %d received a %v frame from rank %d for lock %d, which is homed on rank %d",
			n.cfg.Rank, f.Type, from, i, home))
	}
	if lo := int64(host * n.cfg.PPN); f.B < lo || f.B >= lo+int64(n.cfg.PPN) {
		panic(fmt.Sprintf("mprun: rank %d received a %v frame from rank %d for lock %d and processor %d, which rank %d does not host",
			n.cfg.Rank, f.Type, from, i, f.B, host))
	}
	return i
}

// checkRelease panics unless f's pages ascend, lie in the space and are
// homed here. A release whose sender had left an earlier barrier than
// the last this rank applied (f.C < barRel) was listed against an older
// home table, and a page it lists may have moved away since; such a page
// is let through, and no grant carries it (grant checks every page's
// home).
func (n *node) checkRelease(from int, f wire.Frame) {
	moved := f.C < n.barRel
	for k, pg := range f.Pages {
		bad := ""
		switch {
		case pg < 0 || int(pg) >= n.nPages:
			bad = "outside the space"
		case k > 0 && pg <= f.Pages[k-1]:
			bad = "out of order"
		case !moved && n.homeOf(int(pg)) != n.cfg.Rank:
			bad = fmt.Sprintf("homed on rank %d", n.homeOf(int(pg)))
		default:
			continue
		}
		panic(fmt.Sprintf("mprun: rank %d received a release of lock %d from rank %d listing page %d, %s (pages %v, %d pages)",
			n.cfg.Rank, f.A, from, pg, bad, f.Pages, n.nPages))
	}
}

// checkGrant panics unless the pages f carries ascend, lie in the space
// and are not homed here, this node holds a frame of each (a home keeps
// a mask only for a rank that has fetched the page), and f.Offs holds
// one run count per page and then that many runs of each, which fit a
// page (diff.RunsLen) and together cover f.Words. The handler alone sets
// a page's frame, so it reads cpage.data without mu.
func (n *node) checkGrant(from int, f wire.Frame) {
	bad := ""
	at, words := len(f.Pages), 0
	if at > len(f.Offs) {
		bad = "fewer run counts than pages"
	}
	for k := 0; bad == "" && k < len(f.Pages); k++ {
		pg, runs := f.Pages[k], int(f.Offs[k])
		switch {
		case pg < 0 || int(pg) >= n.nPages:
			bad = fmt.Sprintf("page %d is outside the space", pg)
		case k > 0 && pg <= f.Pages[k-1]:
			bad = "pages out of order"
		case n.homeOf(int(pg)) == n.cfg.Rank:
			bad = fmt.Sprintf("page %d is homed here", pg)
		case n.cache[pg].data == nil:
			bad = fmt.Sprintf("page %d has no frame here", pg)
		case runs < 0 || runs > (len(f.Offs)-at)/2:
			bad = fmt.Sprintf("page %d's run count %d exceeds the offsets", pg, runs)
		default:
			w := diff.RunsLen(n.pageWords, f.Offs[at:at+2*runs])
			if w < 0 {
				bad = fmt.Sprintf("page %d's runs %v do not fit a page", pg, f.Offs[at:at+2*runs])
			}
			at, words = at+2*runs, words+w
		}
	}
	switch {
	case bad != "":
	case at != len(f.Offs):
		bad = fmt.Sprintf("%d offsets beyond the counted runs", len(f.Offs)-at)
	case words != len(f.Words):
		bad = fmt.Sprintf("runs over %d words carry %d", words, len(f.Words))
	default:
		return
	}
	panic(fmt.Sprintf("mprun: rank %d received a malformed grant of lock %d from rank %d: %s (pages %v, offsets %v, %d words of a %d-word page)",
		n.cfg.Rank, f.A, from, bad, f.Pages, f.Offs, len(f.Words), n.pageWords))
}

// checkPlacement panics unless f's page list and its per-page entries
// pair up, every page is in the space, and every entry lies in [0, top):
// a validity mark in an arrival, a rank in a release, which moves no
// page to the home it already has.
func (n *node) checkPlacement(from int, f wire.Frame, top int) {
	ok := len(f.Pages) == len(f.Offs)
	for i := 0; ok && i < len(f.Pages); i++ {
		pg, v := f.Pages[i], f.Offs[i]
		ok = pg >= 0 && int(pg) < n.nPages && v >= 0 && int(v) < top &&
			(f.Type != wire.TBarRelease || int(v) != n.homeOf(int(pg)))
	}
	if !ok {
		panic(fmt.Sprintf("mprun: rank %d received a malformed %v frame from rank %d: pages %v, entries %v (%d pages, entries below %d)",
			n.cfg.Rank, f.Type, from, f.Pages, f.Offs, n.nPages, top))
	}
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

// checkRuns panics unless the runs of f — a diff, a run reply or a push,
// which what names — fit a page and cover its words (diff.RunsLen), a
// diff's give-up mark is 0 or 1, and, for runs a home built from a mask
// (cp non-nil), this node holds a frame of the page for them to go into:
// a home keeps a mask only for a rank that has fetched the page.
func (n *node) checkRuns(from int, f wire.Frame, cp *cpage, what string) {
	if cp != nil && cp.data == nil {
		panic(fmt.Sprintf("mprun: rank %d received a %s page %d from rank %d, but holds no frame of it",
			n.cfg.Rank, what, f.A, from))
	}
	isDiff := f.Type == wire.TDiff
	if diff.RunsLen(n.pageWords, f.Offs) == len(f.Words) && (!isDiff || f.C == 0 || f.C == 1) {
		return
	}
	mark := ""
	if isDiff {
		mark = fmt.Sprintf(", give-up mark %d", f.C)
	}
	panic(fmt.Sprintf("mprun: rank %d received a malformed %s page %d from rank %d: runs %v over %d words of a %d-word page%s",
		n.cfg.Rank, what, f.A, from, f.Offs, len(f.Words), n.pageWords, mark))
}

// serve answers rank from's request f for page hp, under n.mu. The
// first fetch by a rank is only recorded and the second starts its
// mask; both are answered with the whole page. From then on the reply
// carries the runs of the mask (maskRuns) when the request says the
// frame is in step and there are such runs. A full reply is a snapshot,
// taken word-atomically into a borrowed twin (home processors store to
// the master without mu, and Send reads its frame plainly); a run reply
// goes out from the run scratch. Either echoes the requester's
// correlation id and leaves its mask empty.
func (n *node) serve(from int, f wire.Frame, hp *hpage) {
	d := hp.delta
	switch {
	case d != nil && d.stale[from] != nil:
		n.runOffs, n.runWords = n.runOffs[:0], n.runWords[:0]
		if f.B&deltaMark != 0 && n.maskRuns(hp, from) {
			n.send(from, wire.Frame{Type: wire.TPageReply, A: f.A, B: 1, C: f.C, Offs: n.runOffs, Words: n.runWords})
			return
		}
		clear(d.stale[from])
	case !hp.fetched[from]:
		hp.fetched[from] = true
	default:
		if d == nil {
			d = &homeDelta{stale: make([]wordMask, n.cfg.Nodes), keep: make([]bool, n.cfg.Nodes), stores: make([]wordMask, n.cfg.PPN)}
			hp.delta = d
		}
		d.stale[from] = make(wordMask, n.maskWords)
	}
	snap := n.takeTwin(hp.data)
	n.send(from, wire.Frame{Type: wire.TPageReply, A: f.A, C: f.C, Words: snap})
	n.twins = append(n.twins, snap)
}

// staleRuns appends to the run scratch the master's words that mask m
// or the bitmap of a local processor in a tracked interval marks, unless
// the runs with their (start, count) headers would be no smaller than
// the page, and reports whether it did. A store that lands after its
// bit is read here is covered by its processor's flush, which marks the
// word in m and notices the requester.
func (n *node) staleRuns(hp *hpage, m wordMask) bool {
	u := n.union
	copy(u, m)
	for _, s := range hp.delta.stores {
		for k := range s {
			u[k] |= atomic.LoadUint64(&s[k])
		}
	}
	words, runs, carry := 0, 0, uint64(0)
	for _, w := range u {
		words += bits.OnesCount64(w)
		runs += bits.OnesCount64(w &^ (w<<1 | carry)) // a run starts where the word before is unmarked
		carry = w >> 63
	}
	if words+runs >= n.pageWords {
		return false
	}
	for start, end := u.nextRun(0, n.pageWords); start < n.pageWords; start, end = u.nextRun(end, n.pageWords) {
		n.runOffs = append(n.runOffs, int32(start), int32(end-start))
		for i := start; i < end; i++ {
			n.runWords = append(n.runWords, atomic.LoadInt64(&hp.data[i]))
		}
	}
	return true
}

// maskRuns is the one builder of the runs a home sends from a mask, for
// a run reply, a push and a lock grant alike ("Runs from a mask"): it
// appends to the run scratch the words rank r's frame of page hp may
// lack (staleRuns) and empties r's mask, unless r has no mask, a local
// processor is in an untracked interval on the page, or the runs with
// their headers would be no smaller than the page. It reports whether
// it did. Called with n.mu held.
func (n *node) maskRuns(hp *hpage, r int) bool {
	d := hp.delta
	if d == nil || d.stale[r] == nil || hp.untracked > 0 || !n.staleRuns(hp, d.stale[r]) {
		return false
	}
	clear(d.stale[r])
	return true
}

// publish tells sharer s that a release has changed homed page pg,
// under n.mu, and counts one more notice of the page out. It pushes —
// sends a TWriteNotice carrying the runs of s's mask (maskRuns) and
// leaves s a sharer — when s's last request carried the keep mark and
// there is at least one run. Otherwise it sends a plain notice and
// strikes s from the sharer set. Both go out under n.mu, like a reply,
// so neither overtakes one on the channel to s. ring is the caller's
// trace ring.
func (n *node) publish(ring, pg, s int, token int64) {
	hp := &n.home[pg]
	hp.unacked++
	f := wire.Frame{Type: wire.TWriteNotice, A: int64(pg), B: token}
	n.runOffs, n.runWords = n.runOffs[:0], n.runWords[:0]
	if d := hp.delta; d != nil && d.keep[s] && n.maskRuns(hp, s) && len(n.runOffs) > 0 {
		f.Offs, f.Words = n.runOffs, n.runWords
	} else {
		hp.sharers[s] = false
	}
	n.emit(ring, trace.EvNoticeSend, pg, int64(s), int64(len(f.Words)))
	n.send(s, f)
}

// request queues waiter w for lock i, or grants it the lock when the
// lock is free. Called with n.mu held, for a TLockReq and a home
// processor's Lock alike.
func (n *node) request(i int, w waiter) {
	if n.lockHolder[i] != noHolder {
		n.lockQ[i] = append(n.lockQ[i], w)
		return
	}
	n.grant(i, w)
}

// grant makes waiter w the holder of lock i, under n.mu. A processor of
// this rank has its request answered in place. Another rank is sent a
// TLockGrant, which carries the runs (maskRuns) of each page of the
// lock's last release that is still homed here and of which w is not a
// sharer. Each page carried registers w as a sharer, as a reply does.
// The grant goes out under n.mu, so a notice of a later store follows it
// on the channel to w.
func (n *node) grant(i int, w waiter) {
	n.lockHolder[i] = w.gpid
	if w.node == n.cfg.Rank {
		n.wants[int(w.gpid)-n.cfg.Rank*n.cfg.PPN] = noLock
		n.cond.Broadcast()
		return
	}
	pages, counts := n.grantPages[:0], n.grantOffs[:0]
	n.runOffs, n.runWords = n.runOffs[:0], n.runWords[:0]
	for _, pg := range n.lockPages[i] {
		if n.homeOf(int(pg)) != n.cfg.Rank {
			continue // moved away at a barrier since the release
		}
		hp := &n.home[pg]
		at := len(n.runOffs)
		if hp.sharers[w.node] || !n.maskRuns(hp, w.node) {
			continue
		}
		hp.sharers[w.node] = true
		pages = append(pages, pg)
		counts = append(counts, int32((len(n.runOffs)-at)/2))
	}
	n.grantPages, n.grantOffs = pages, append(counts, n.runOffs...)
	n.send(w.node, wire.Frame{Type: wire.TLockGrant, A: int64(i), B: w.gpid, Pages: n.grantPages, Offs: n.grantOffs, Words: n.runWords})
}

// release keeps pages, the pages a release of lock i published that are
// homed here, as the lock's, and passes the lock, which is held, to its
// first waiter, or frees it when there is none. Called with n.mu held.
func (n *node) release(i int, pages []int32) {
	n.lockPages[i] = append(n.lockPages[i][:0], pages...)
	q := n.lockQ[i]
	if len(q) == 0 {
		n.lockHolder[i] = noHolder
		return
	}
	w := q[0]
	n.lockQ[i] = q[:copy(q, q[1:])]
	n.grant(i, w)
}

// install takes in the runs grant f carries, under n.mu, by the grant
// rule ("Runs from a mask"): a page's runs go into a frame that is
// synced and has no twin, no request in flight and no diff
// unacknowledged, which becomes a valid copy; otherwise they are dropped
// (dropRuns).
func (n *node) install(f wire.Frame) {
	offs, words := f.Offs[len(f.Pages):], f.Words
	wake := false
	for k, pg := range f.Pages {
		runs := offs[:2*f.Offs[k]]
		vals := words[:diff.RunsLen(n.pageWords, runs)]
		offs, words = offs[len(runs):], words[len(vals):]
		cp := &n.cache[pg]
		if cp.synced && cp.twin == nil && cp.reqID == 0 && cp.diffs == 0 {
			diff.MergeRuns(cp.data, cp.twin, runs, vals)
			cp.valid = true
			continue
		}
		wake = dropRuns(cp) || wake
	}
	if wake {
		n.cond.Broadcast() // disowned fetches
	}
}

// dropRuns is what dropping runs the home built from a mask — a grant's
// or a push's — does to cp, under n.mu ("Runs from a mask"): the frame
// lacks words the home now counts as delivered, so it is no longer
// synced, and a request in flight, whose reply the home builds from the
// mask the runs emptied, is disowned. It reports whether it disowned
// one, whose waiter must be woken to ask again, for the whole page.
func dropRuns(cp *cpage) (disowned bool) {
	disowned = cp.reqID != 0
	cp.synced, cp.reqID = false, 0
	return disowned
}

// handle processes one incoming frame. The Messenger delivers frames
// single-threaded, so this is the only goroutine mutating home and
// coordinator state. Frames are validated before mu is taken; their
// slices are the Messenger's again once handle returns, and every case
// is done with them by then.
func (n *node) handle(from int, f wire.Frame) {
	// A frame's slices belong to its type: a diff, a run reply and a
	// push define Offs and Words, a full page reply Words, a barrier
	// arrival or release Pages and Offs, a lock release Pages, a lock
	// grant all three, nothing else any. One this protocol would drop on
	// the floor — a batched notice's extra Pages, say — is refused, not
	// ignored.
	barrier := f.Type == wire.TBarArrive || f.Type == wire.TBarRelease
	runs := f.Type == wire.TLockGrant || f.Type == wire.TDiff || f.Type == wire.TWriteNotice
	hasPages := barrier || f.Type == wire.TLockGrant || f.Type == wire.TLockRelease
	hasOffs := barrier || runs || f.Type == wire.TPageReply && f.B == 1
	hasWords := runs || f.Type == wire.TPageReply
	if len(f.Pages) != 0 && !hasPages || len(f.Offs) != 0 && !hasOffs || len(f.Words) != 0 && !hasWords {
		panic(fmt.Sprintf("mprun: rank %d received a %v frame from rank %d carrying %d pages, %d offsets and %d words, which the type does not define",
			n.cfg.Rank, f.Type, from, len(f.Pages), len(f.Offs), len(f.Words)))
	}
	switch f.Type {
	case wire.TPageReq:
		hp := n.homed(from, f)
		if f.B&^(deltaMark|keepMark) != 0 {
			panic(fmt.Sprintf("mprun: rank %d received a request for page %d from rank %d with marks %d, want 0..3",
				n.cfg.Rank, f.A, from, f.B))
		}
		n.mu.Lock()
		hp.sharers[from] = true
		// The reply goes out before mu is released: a home processor's
		// flush sends notices under mu, so one for a store the reply
		// missed cannot reach the requester ahead of it.
		n.serve(from, f, hp)
		if hp.delta != nil {
			hp.delta.keep[from] = f.B&keepMark != 0
		}
		n.mu.Unlock()

	case wire.TPageReply:
		cp := n.cached(from, f)
		switch {
		case f.B == 0 && len(f.Words) != n.pageWords:
			panic(fmt.Sprintf("mprun: rank %d received a %d-word reply for page %d from rank %d, want %d words",
				n.cfg.Rank, len(f.Words), f.A, from, n.pageWords))
		case f.B == 1:
			n.checkRuns(from, f, cp, "run reply for")
		case f.B != 0:
			panic(fmt.Sprintf("mprun: rank %d received a reply for page %d from rank %d with form mark %d",
				n.cfg.Rank, f.A, from, f.B))
		}
		n.mu.Lock()
		// A reply to anything but the latest request was copied at the
		// home before a diff this node has flushed since: drop it, and
		// with it the frame's claim to what the home thinks it sent.
		if cp.reqID != 0 && f.C == cp.reqID {
			switch {
			case f.B == 1:
				diff.MergeRuns(cp.data, cp.twin, f.Offs, f.Words)
			case cp.data == nil:
				cp.data = make([]int64, n.pageWords)
				diff.CopyIn(cp.data, f.Words)
			case cp.twin == nil:
				diff.Refresh(cp.data, f.Words)
			default:
				// Unflushed local writes: take only what changed remotely.
				diff.Incoming(cp.data, cp.twin, f.Words)
			}
			cp.valid, cp.synced = true, true
			cp.reqID = 0
			cp.got = int64(len(f.Words))*transport.WordBytes + int64(len(f.Offs))*4
		} else {
			cp.synced = false
		}
		n.mu.Unlock()
		n.cond.Broadcast()

	case wire.TDiff:
		hp := n.homed(from, f)
		n.checkRuns(from, f, nil, "diff of")
		n.mu.Lock()
		// Word-atomically: this node's processors read and write the
		// master without the lock.
		diff.ApplyRuns(hp.data, f.Offs, f.Words)
		// Every other rank's frame now lacks these words; the flusher's
		// has them.
		if d := hp.delta; d != nil {
			for r, m := range d.stale {
				if m != nil && r != from {
					for i := 0; i < len(f.Offs); i += 2 {
						m.setRange(int(f.Offs[i]), int(f.Offs[i+1]))
					}
				}
			}
		}
		n.emit(n.cfg.PPN, trace.EvDiffIn, int(f.A), int64(len(f.Words)), int64(from))
		// Every other copy out there is now stale: those sharers are
		// pushed the words or restart from a fresh fetch. The flusher's
		// copy has the words already and stays registered unless the
		// diff says it was given up.
		for s, sharing := range hp.sharers {
			if sharing && s != from {
				n.publish(n.cfg.PPN, int(f.A), s, f.B)
			}
		}
		if f.C == 1 {
			hp.sharers[from] = false
		}
		fenced := hp.unacked > 0
		if fenced {
			hp.acks = append(hp.acks, flushAck{flusher: from, token: f.B})
		}
		n.mu.Unlock()
		if !fenced {
			n.send(from, wire.Frame{Type: wire.TFlushAck, A: f.A, B: f.B})
		}

	case wire.TWriteNotice:
		cp := n.cached(from, f)
		push := len(f.Offs) != 0 || len(f.Words) != 0
		if push {
			n.checkRuns(from, f, cp, "push for")
		}
		n.mu.Lock()
		var invalidated int64
		wake := false
		switch {
		case push && cp.valid && cp.diffs == 0:
			// A push into a copy in step with the master but for the runs
			// (package doc, "Runs from a mask"); a valid copy has no
			// request in flight. The copy stays valid.
			diff.MergeRuns(cp.data, cp.twin, f.Offs, f.Words)
		case cp.valid:
			invalidated = 1
			cp.valid = false
			cp.noticed = true
			if cp.gaveUp {
				cp.keep = true
			}
			n.epoch.Add(1)
			fallthrough
		default:
			if push {
				wake = dropRuns(cp)
			}
		}
		n.mu.Unlock()
		if wake {
			n.cond.Broadcast() // a disowned fetch
		}
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
		cp := n.cached(from, f)
		n.mu.Lock()
		if cp.diffs <= 0 {
			// Taken, it would let the node's next release skip its fence.
			n.mu.Unlock()
			panic(fmt.Sprintf("mprun: rank %d received a flush ack from rank %d for page %d, token %#x, but awaits none",
				n.cfg.Rank, from, f.A, f.B))
		}
		cp.diffs--
		n.flushOut--
		n.mu.Unlock()
		n.cond.Broadcast()

	case wire.TBarArrive:
		n.viaRank0(from, f, n.cfg.Rank)
		n.checkPlacement(from, f, 2)
		if f.A != n.barCounting {
			// Counted, it would open a generation that never fills, and
			// every rank would wait at the barrier forever.
			panic(fmt.Sprintf("mprun: rank 0 received an arrival of processor %d from rank %d at barrier generation %d, but generation %d is in progress",
				f.B, from, f.A, n.barCounting))
		}
		for i, pg := range f.Pages {
			n.noteWriter(int(pg), from, f.Offs[i] == 1)
		}
		if n.barCount++; n.barCount == n.cfg.Nodes*n.cfg.PPN {
			n.barCount = 0
			n.barCounting++
			// The decision's scratch is the handler's alone, and Send is
			// done with it before the next arrival can be handled.
			n.decide()
			for r := 0; r < n.cfg.Nodes; r++ {
				n.send(r, wire.Frame{Type: wire.TBarRelease, A: f.A, Pages: n.movePages, Offs: n.moveHomes})
			}
		}

	case wire.TBarRelease:
		n.viaRank0(from, f, from)
		n.checkPlacement(from, f, n.cfg.Nodes)
		n.mu.Lock()
		n.rehome(f.Pages, f.Offs)
		if f.A > n.barRel {
			n.barRel = f.A
			n.relMoved = len(f.Pages) > 0
		}
		n.mu.Unlock()
		n.cond.Broadcast()

	case wire.TLockReq:
		i := n.lockAt(from, f, n.cfg.Rank, from)
		n.mu.Lock()
		n.request(i, waiter{node: from, gpid: f.B})
		n.mu.Unlock()

	case wire.TLockGrant:
		i := n.lockAt(from, f, from, n.cfg.Rank)
		n.checkGrant(from, f)
		local := int(f.B) - n.cfg.Rank*n.cfg.PPN
		n.mu.Lock()
		if n.wants[local] != i {
			n.mu.Unlock()
			// Taken, it would let the processor's next Lock return
			// without the lock.
			panic(fmt.Sprintf("mprun: rank %d received a grant of lock %d from rank %d for processor %d, which has not asked for it",
				n.cfg.Rank, i, from, f.B))
		}
		n.install(f)
		n.wants[local] = noLock
		n.mu.Unlock()
		n.cond.Broadcast()

	case wire.TLockRelease:
		i := n.lockAt(from, f, n.cfg.Rank, from)
		n.checkRelease(from, f)
		n.mu.Lock()
		if h := n.lockHolder[i]; h != f.B {
			n.mu.Unlock()
			if h == noHolder {
				panic(fmt.Sprintf("mprun: rank %d received a release of lock %d from rank %d, which is not held",
					n.cfg.Rank, i, from))
			}
			panic(fmt.Sprintf("mprun: rank %d received a release of lock %d from rank %d for processor %d, but processor %d holds it",
				n.cfg.Rank, i, from, f.B, h))
		}
		n.release(i, f.Pages)
		n.mu.Unlock()

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

// noteWriter records, on the coordinator, that rank from wrote page in
// the interval the barrier in progress ends, and whether it holds a
// valid copy. A page already placed is not reconsidered.
func (n *node) noteWriter(page, from int, valid bool) {
	switch w := n.writer[page]; {
	case n.placed[page] || w == from:
	case w == noWriter:
		n.writer[page], n.writerValid[page] = from, valid
		n.reported = append(n.reported, page)
	default:
		n.writer[page] = manyWriters
	}
}

// decide places every page reported at the barrier in progress, once
// all processors have arrived, and lists the ones that move in
// n.movePages, in page order, with their new homes in n.moveHomes. A
// page moves to its one writer if that rank still holds a valid copy and
// is not its home already. By now every release fence of the interval
// has completed, so that copy equals the master, and no frame about the
// page is in flight.
func (n *node) decide() {
	slices.Sort(n.reported)
	n.movePages, n.moveHomes = n.movePages[:0], n.moveHomes[:0]
	for _, pg := range n.reported {
		n.placed[pg] = true
		if w := n.writer[pg]; w >= 0 && n.writerValid[pg] && w != n.homeOf(pg) {
			n.movePages = append(n.movePages, int32(pg))
			n.moveHomes = append(n.moveHomes, int32(w))
		}
		n.writer[pg] = noWriter
	}
	n.reported = n.reported[:0]
}

// rehome applies a barrier release's moves, page pages[i] to rank
// homes[i], before any processor leaves the barrier. The new home
// adopts its valid copy as the master, with no sharers; every other rank
// drops its copy — the old home's master among them — and bumps the
// epoch. No page data travels. Called with n.mu held, from the handler.
func (n *node) rehome(pages, homes []int32) {
	dropped := false
	for i, pg32 := range pages {
		pg, to := int(pg32), int(homes[i])
		cp, hp := &n.cache[pg], &n.home[pg]
		if cp.twin != nil || cp.writers != 0 || cp.reqID != 0 || hp.unacked != 0 {
			panic(fmt.Sprintf("mprun: rank %d: page %d moves to rank %d while it has a twin (%v), %d writers, request %#x and %d notices out",
				n.cfg.Rank, pg, to, cp.twin != nil, cp.writers, cp.reqID, hp.unacked))
		}
		from := n.homeOf(pg)
		switch {
		case to == n.cfg.Rank:
			if !cp.valid {
				panic(fmt.Sprintf("mprun: rank %d: page %d moves here from rank %d, but this rank holds no valid copy",
					n.cfg.Rank, pg, from))
			}
			*hp = newHpage(cp.data, n.cfg.Nodes)
			cp.noticed, cp.gaveUp, cp.keep = false, false, false
		case cp.valid:
			*hp = hpage{}
			cp.valid = false
			dropped = true
		}
		n.homes[pg] = to
		n.emit(n.cfg.PPN, trace.EvHomeMigrate, pg, int64(from), int64(to))
	}
	if dropped {
		n.epoch.Add(1)
	}
}

// ensureLocked makes page's cached copy valid, requesting it from its
// home as needed; called and returns with n.mu held. ring is the
// calling goroutine's trace ring (-1 from the verification view). The
// processor that sends the request records the fetch as an EvPageFetch
// span from request to reply, with the bytes the accepted reply
// carried; pile-in waiters record only their fault span. A flush that
// publishes the page's twin while a request is in flight clears reqID,
// and the waiter asks again behind the diff.
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
			var marks int64
			if cp.synced {
				marks |= deltaMark
			}
			if cp.keep {
				marks |= keepMark
			}
			n.send(n.homeOf(page), wire.Frame{Type: wire.TPageReq, A: int64(page), B: marks, C: cp.reqID})
		}
		n.cond.Wait()
	}
	if sent {
		n.span(ring, trace.EvPageFetch, page, t0, cp.got, int64(n.homeOf(page)))
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

// takeMask returns a cleared store bitmap from the pool. Called with
// n.mu held.
func (n *node) takeMask() wordMask {
	if k := len(n.masks); k > 0 {
		m := n.masks[k-1]
		n.masks = n.masks[:k-1]
		return m
	}
	return make(wordMask, n.maskWords)
}

// closeInterval ends local processor local's dirty interval on homed
// page hp, at its flush: a tracked processor's stores go into every mask
// and its bitmap back to the pool, cleared; an untracked one set no
// bits, so every mask becomes unknown: every word marked. Called with
// n.mu held.
func (n *node) closeInterval(hp *hpage, local int) {
	d := hp.delta
	if d == nil || d.stores[local] == nil {
		hp.untracked--
		if d != nil {
			for _, m := range d.stale {
				if m != nil {
					m.setRange(0, n.pageWords)
				}
			}
		}
		return
	}
	s := d.stores[local]
	for _, m := range d.stale {
		if m != nil {
			for k, w := range s {
				m[k] |= w
			}
		}
	}
	clear(s)
	n.masks = append(n.masks, s)
	d.stores[local] = nil
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
// is what keeps the twin its stores will be diffed against alive; on a
// homed page in a tracked interval, stores is where its stores are
// marked.
type tlbEntry struct {
	page     int32 // -1 when empty
	writable bool
	frame    []int64
	epoch    uint64
	// stores is the processor's store bitmap for a homed page it writes
	// in a tracked interval, nil otherwise. With it the entry is 64
	// bytes, a page number and a bool sharing the first word.
	stores wordMask
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
	// relPages is the scratch for the pages an Unlock lists.
	relPages []int32
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
	*e = tlbEntry{page: int32(page), frame: p.n.cache[page].data, epoch: p.n.epoch.Load(), writable: p.dirtyIn[page]}
	if e.writable {
		if d := p.n.home[page].delta; d != nil {
			e.stores = d.stores[p.local]
		}
	}
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
	if e.page == int32(page) && e.epoch == p.n.epoch.Load() {
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
// page's writer count and the page twinned. On the home the interval is
// tracked — the processor's stores set bits in a bitmap of its own — if
// some rank's mask exists, and untracked otherwise. Every fault is
// recorded — a span when it had to fetch, an instant when the copy was
// valid or the master — so a trace shows each processor that wrote a
// page, its home's included. Called and returns with n.mu held.
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
		switch hp := &n.home[page]; {
		case hp.data == nil:
			if cp.writers == 0 {
				cp.twin = n.takeTwin(cp.data)
			}
			cp.writers++
		case hp.delta != nil:
			hp.delta.stores[p.local] = n.takeMask()
		default:
			hp.untracked++
		}
		if n.placing && n.place[page] == unplaced {
			n.place[page] = recorded
			n.wrote = append(n.wrote, page)
		}
	}
	return p.fillLocked(page)
}

// Load repeats readEntry's hit test because readEntry is too big to
// inline, and the call would cost a hit a fifth of its time.
func (p *proc) Load(addr int) int64 {
	page, off := p.n.split(addr)
	e := &p.tlb[page&tlbMask]
	if e.page != int32(page) || e.epoch != p.n.epoch.Load() {
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
// On a homed page in a tracked interval the store then marks its word in
// the processor's bitmap ("Delta replies").
func (p *proc) Store(addr int, v int64) {
	page, off := p.n.split(addr)
	e := &p.tlb[page&tlbMask]
	if e.page != int32(page) || !e.writable || e.epoch != p.n.epoch.Load() {
		p.n.mu.Lock()
		e = p.writableLocked(page)
		p.n.mu.Unlock()
	}
	atomic.StoreInt64(&e.frame[off], v)
	if e.stores != nil {
		e.stores.set(off)
	}
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
		e := p.writableLocked(page)
		seg := e.frame[off : off+run]
		for i, v := range src[:run] {
			seg[i] = int64(math.Float64bits(v))
		}
		if e.stores != nil {
			e.stores.setRange(off, run)
		}
		n.mu.Unlock()
		src = src[run:]
		addr += run
	}
}

// flush publishes every page on the processor's dirty list, takes the
// processor off each, and waits until all stale copies of each have
// been invalidated or pushed. It is the release operation's write-back;
// the caller performs the matching release message only after flush
// returns. It sends in two phases. First every page homed elsewhere goes
// to its home as a diff against its twin, which carries every local
// processor's words so far, and the release waits for their
// acknowledgements. Then every page homed here, written in place, is
// published to each remote sharer — a push or a write notice (publish)
// — and nothing is sent when there is none; the release waits again.
// The fence span covers diff construction through the last
// acknowledgement of either phase and is recorded only when the release
// actually waited on something.
func (p *proc) flush() {
	n := p.n
	n.mu.Lock()
	t0 := n.wallNow()
	n.tokenSeq++
	token := int64(n.cfg.Rank)<<32 | n.tokenSeq
	slices.Sort(p.dirty)
	diffs := 0
	for _, page := range p.dirty {
		if n.home[page].data == nil && p.flushDiff(page, token) {
			diffs++
		}
	}
	n.flushOut += diffs
	// The diffs' acknowledgements come back before the pushes go out, so
	// a peer's inbox never holds both bursts of one release at once.
	fenced := diffs > 0 && n.await()
	published := 0
	for _, page := range p.dirty {
		if hp := &n.home[page]; hp.data != nil {
			p.offPage(page)
			n.closeInterval(hp, p.local)
			for s, sharing := range hp.sharers {
				if sharing {
					n.publish(p.local, page, s, token)
				}
			}
			if hp.unacked > 0 {
				hp.acks = append(hp.acks, flushAck{flusher: n.cfg.Rank, token: token})
				published++
			}
		}
	}
	p.dirty = p.dirty[:0]
	n.flushOut += published
	// Wait for every outstanding flush of this node, not just our own
	// pages: a release may carry no dirty words itself yet must still
	// fence behind a sibling's diff in flight, which may be carrying
	// words of ours that the twin it updated then kept out of our own.
	fenced = n.await() || fenced
	n.mu.Unlock()
	if fenced {
		n.span(p.local, trace.EvFlushFence, -1, t0, int64(diffs+published), 0)
	}
}

// offPage takes the processor off page at its release: its next store
// to the page faults. Called with n.mu held.
func (p *proc) offPage(page int) {
	p.dirtyIn[page] = false
	if e := &p.tlb[page&tlbMask]; e.page == int32(page) {
		e.writable, e.stores = false, nil
	}
}

// flushDiff is the first phase of flush for page, one homed elsewhere:
// it takes the processor off the page and sends the home the page's diff
// against its twin, if the stores changed anything, and reports whether
// it sent one. Called with n.mu held.
func (p *proc) flushDiff(page int, token int64) bool {
	n := p.n
	p.offPage(page)
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
		return false
	}
	giveUp := int64(0)
	switch {
	case !cp.valid:
		// Invalidated under the stores and not refetched since. A fetch
		// in flight may have been copied at the home ahead of this diff,
		// and its reply would put older words over these — in the frame,
		// and in the twin if one is left: disown it, so that the reply is
		// dropped and the waiter asks again behind the diff.
		if cp.reqID != 0 {
			cp.reqID, cp.synced = 0, false
			n.cond.Broadcast() // the disowned fetch
		}
	case last && cp.noticed && !cp.keep:
		// Others write this page between our releases, so the copy would
		// be invalidated before we next use it and cost its writer a
		// notice round trip: give it up now, in the diff. Not while a
		// sibling is still writing it, though: that one would refetch at
		// once.
		cp.valid = false
		n.epoch.Add(1)
		giveUp = 1
	}
	// Otherwise the copy stays valid: it has every word the diff carries,
	// and the home keeps us registered, so whoever writes the page next
	// pushes to it or invalidates it like any other sharer's.
	cp.gaveUp = giveUp == 1
	cp.diffs++
	n.emit(p.local, trace.EvDiffOut, page, int64(len(n.runWords)), trace.PackWordSpan(lo, hi))
	// Send only borrows the frame's slices, so the diff goes out from the
	// scratch and the next page's runs may overwrite it.
	n.send(n.homeOf(page), wire.Frame{
		Type: wire.TDiff, A: int64(page), B: token, C: giveUp,
		Offs: n.runOffs, Words: n.runWords,
	})
	if !last {
		// Siblings still store to the page without the mutex, so the twin
		// stays, brought up to what the diff carried (flush-update): their
		// releases then send only what is newer. The words come from the
		// scratch, not the frame: a store that has landed since the scan
		// is in no diff yet, and a twin that took it from the frame would
		// hide it from every later one.
		diff.ApplyRuns(cp.twin, n.runOffs, n.runWords)
	}
	return true
}

// await waits until every flush of the node has propagated — flushOut
// is zero — and reports whether it had to wait. Called and returns with
// n.mu held.
func (n *node) await() bool {
	waited := n.flushOut > 0
	for n.flushOut > 0 {
		n.cond.Wait()
	}
	return waited
}

// checkID panics, naming the processor, unless lock or flag id i is
// below top, the application's count: an id outside it would index the
// node's tables, or go out in a frame every receiver refuses, blaming
// this rank. what says what the processor was doing.
func (p *proc) checkID(i, top int, what string) {
	if i < 0 || i >= top {
		panic(fmt.Sprintf("mprun: processor %d %s %d of %d", p.gpid, what, i, top))
	}
}

// Compute is a no-op: the multi-process runtime runs in real time and
// charges no virtual clock.
func (p *proc) Compute(ns, busBytes int64) {}

// Poll and PollN are no-ops: requests are served by the handler
// goroutine, not by polling processors.
func (p *proc) Poll()         {}
func (p *proc) PollN(n int64) {}

// Lock acquires application lock i from its home: in place, under n.mu,
// when this rank is the home, else with a TLockReq there, whose grant may
// bring some of the lock's pages with it.
func (p *proc) Lock(i int) {
	n := p.n
	p.checkID(i, len(n.lockHolder), "locks lock")
	t0 := n.wallNow()
	n.mu.Lock()
	// The request is on record before the TLockReq is out, so the grant
	// finds it.
	n.wants[p.local] = i
	if home := n.lockHome(i); home == n.cfg.Rank {
		n.request(i, waiter{node: home, gpid: int64(p.gpid)})
	} else {
		// Not under mu: held across the send, it holds up the handler,
		// and mp_migratory_tcp then moved 0.2 % more data.
		n.mu.Unlock()
		n.send(home, wire.Frame{Type: wire.TLockReq, A: int64(i), B: int64(p.gpid)})
		n.mu.Lock()
	}
	for n.wants[p.local] != noLock {
		n.cond.Wait()
	}
	n.mu.Unlock()
	n.span(p.local, trace.EvLock, -1, t0, int64(i), 0)
}

// Unlock releases lock i: dirty pages are flushed before the lock can
// pass to the next holder. The release names the pages it published
// that are homed on the lock's home, which a grant to another rank may
// carry: in a TLockRelease to the home, or, on the home, kept in place.
func (p *proc) Unlock(i int) {
	n := p.n
	p.checkID(i, len(n.lockHolder), "unlocks lock")
	t0 := n.wallNow()
	// The dirty list is this goroutine's own, and the flush publishes it.
	home := n.lockHome(i)
	pages := p.relPages[:0]
	for _, pg := range p.dirty {
		if n.homeOf(pg) == home {
			pages = append(pages, int32(pg))
		}
	}
	slices.Sort(pages)
	p.relPages = pages
	p.flush()
	if home != n.cfg.Rank {
		n.send(home, wire.Frame{Type: wire.TLockRelease, A: int64(i), B: int64(p.gpid), C: p.barGen, Pages: pages})
	} else {
		n.mu.Lock()
		if n.lockHolder[i] != int64(p.gpid) {
			// The home refuses the same release in a TLockRelease.
			n.mu.Unlock()
			panic(fmt.Sprintf("mprun: processor %d unlocks lock %d, which it does not hold", p.gpid, i))
		}
		n.release(i, pages)
		n.mu.Unlock()
	}
	n.span(p.local, trace.EvUnlock, -1, t0, int64(i), 0)
}

// SetFlag raises flag i for the whole cluster after flushing, so a
// woken waiter finds the protected data at its home.
func (p *proc) SetFlag(i int) {
	n := p.n
	p.checkID(i, len(n.flags), "sets flag")
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
	p.checkID(i, len(n.flags), "waits for flag")
	t0 := n.wallNow()
	n.mu.Lock()
	for !n.flags[i] {
		n.cond.Wait()
	}
	n.mu.Unlock()
	n.span(p.local, trace.EvFlagWait, -1, t0, int64(i), 0)
}

// Barrier flushes and waits for every processor in the cluster. A
// release that moved pages is followed by an internal barrier: every
// rank has applied the moves before any processor leaves, so no frame
// about a moved page can reach a rank that does not know its new home.
func (p *proc) Barrier() {
	n := p.n
	t0 := n.wallNow()
	p.flush()
	if p.arrive() {
		p.arrive()
	}
	n.span(p.local, trace.EvBarrier, -1, t0, p.barGen, 0)
}

// arrive announces the processor at the next barrier generation, waits
// for its release and reports whether the release moved pages. The
// node's last local arrival carries the pages the node first wrote in
// the interval, and whether its copy of each is valid; it sends them
// under mu, from the report scratch, which no one touches again before
// the release. Every processor has flushed by then, so the copies are
// as the barrier leaves them.
func (p *proc) arrive() (moved bool) {
	n := p.n
	p.barGen++
	f := wire.Frame{Type: wire.TBarArrive, A: p.barGen, B: int64(p.gpid)}
	n.mu.Lock()
	if n.barHere++; n.barHere == n.cfg.PPN {
		n.barHere = 0
		n.reportPages, n.reportValid = n.reportPages[:0], n.reportValid[:0]
		for _, pg := range n.wrote {
			n.place[pg] = reported
			valid := int32(0)
			if n.cache[pg].valid {
				valid = 1
			}
			n.reportPages = append(n.reportPages, int32(pg))
			n.reportValid = append(n.reportValid, valid)
		}
		n.wrote = n.wrote[:0]
		f.Pages, f.Offs = n.reportPages, n.reportValid
	}
	n.send(0, f)
	for n.barRel < p.barGen {
		n.cond.Wait()
	}
	moved = n.relMoved
	n.mu.Unlock()
	return moved
}

// BeginInit and EndInit bracket the initialization epoch with the same
// barrier pairs the simulator engine uses, which is what makes proc
// 0's initialization writes visible everywhere before the body starts.
// There is no virtual clock to pause here. Leaving EndInit opens page
// placement on the node.
func (p *proc) BeginInit() {
	p.Barrier()
	p.Barrier()
}

func (p *proc) EndInit() {
	p.Barrier()
	p.Barrier()
	p.n.mu.Lock()
	p.n.placing = true
	p.n.mu.Unlock()
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
