package core

import (
	"fmt"

	"cashmere/internal/directory"
)

// Verification harness (used by internal/modelcheck).
//
// The model checker explores interleavings of the protocol's atomic
// transitions — the operations that appear as single steps in the
// paper's protocol description: faults, release flushes, acquire-side
// notice drains, exclusive-mode breaks, and the two halves of a
// barrier. Each transition already runs to completion under the owning
// node's mutex, so executing them one at a time from a single
// controlling goroutine explores exactly the protocol-level
// interleavings while keeping every run deterministic and replayable.
//
// Harness methods call the same unexported protocol routines the
// application-facing entry points use (acquireActions, releaseActions,
// flushForBarrier, maybeBreakExclusive); nothing is re-implemented.
// The only decomposition is the barrier: Barrier's arrival half (flush
// under the last-arriving-local-writer rule) and departure half
// (acquire-side consistency actions) are exposed as separate steps with
// the rendezvous enforced by the scheduler instead of a blocking wait,
// which lets the checker interleave other processors' operations
// between arrivals — a strict superset of the schedules the blocking
// barrier admits.

// Harness exposes the protocol's atomic transitions and internal state
// to the verification layer. Obtain one with Cluster.Harness. All
// methods must be called from a single goroutine, with no application
// body running (i.e. outside Cluster.Run); they are not safe for
// concurrent use.
type Harness struct {
	c *Cluster
}

// Harness returns the cluster's verification harness.
func (c *Cluster) Harness() *Harness { return &Harness{c: c} }

// Cluster returns the underlying cluster.
func (h *Harness) Cluster() *Cluster { return h.c }

func (h *Harness) proc(i int) *Proc { return h.c.procs[i] }

// Read performs a shared read of addr on processor proc, servicing any
// read fault (page fetch, exclusive break, refetch) exactly as the
// application fast path would.
func (h *Harness) Read(proc, addr int) int64 { return h.proc(proc).Load(addr) }

// Write performs a shared write of addr on processor proc, servicing
// any write fault (twinning, exclusive entry, write doubling) exactly
// as the application fast path would.
func (h *Harness) Write(proc, addr int, v int64) { h.proc(proc).Store(addr, v) }

// Acquire performs processor proc's acquire-side consistency actions:
// draining the node's global write-notice list, distributing notices to
// local per-processor lists, and invalidating stale mappings (Section
// 2.4.2). It is the consistency half of Lock/WaitFlag, without the
// synchronization object.
func (h *Harness) Acquire(proc int) { h.proc(proc).acquireActions() }

// Release performs processor proc's release-side consistency actions:
// flushing dirty and no-longer-exclusive pages to their homes and
// sending write notices to sharing nodes (Section 2.4.3). It is the
// consistency half of Unlock/SetFlag, without the synchronization
// object.
func (h *Harness) Release(proc int) { h.proc(proc).releaseActions() }

// BreakExclusive checks the directory for an exclusive holder of page
// on a node other than proc's and, if found, performs the explicit-
// request exchange breaking the page out of exclusive mode on proc's
// behalf. It reports whether a break was performed. This is the same
// transition a fault on proc would trigger first; exposing it
// separately lets a schedule break exclusive mode without the
// subsequent map-in.
func (h *Harness) BreakExclusive(proc, page int) bool {
	return h.proc(proc).maybeBreakExclusive(page)
}

// BarrierArrive performs the arrival half of Barrier for processor
// proc: draining doubled writes, marking the processor arrived, and
// flushing the dirty pages for which it is the last arriving local
// writer (earlier arrivals delegate via no-longer-exclusive notices).
// The caller is responsible for the rendezvous: every processor must
// arrive before any departs, and an arrived processor must perform no
// other operation until its BarrierDepart.
func (h *Harness) BarrierArrive(proc int) {
	p := h.proc(proc)
	n := p.n
	p.drainDoubled()
	n.mu.Lock()
	n.lclock.Tick()
	releaseStart := n.lclock.Now()
	n.arrived[p.local] = true
	p.flushForBarrier(releaseStart)
	n.mu.Unlock()
}

// BarrierDepart performs the departure half of Barrier for processor
// proc, releasing it at virtual time release (the caller computes
// max arrival time + BarrierCost, as the blocking rendezvous would) and
// running the departure-side acquire actions.
func (h *Harness) BarrierDepart(proc int, release int64) {
	p := h.proc(proc)
	p.chargeWait(release)
	n := p.n
	n.mu.Lock()
	n.arrived[p.local] = false
	n.mu.Unlock()
	p.acquireActions()
}

// BarrierCost returns the modeled cost of one barrier episode, the
// value the blocking rendezvous adds to the latest arrival time.
func (h *Harness) BarrierCost() int64 {
	return h.c.model.Barrier(len(h.c.procs), h.c.cfg.Protocol.TwoLevelFamily())
}

// PageMode returns page's current adaptive coherence mode.
func (h *Harness) PageMode(page int) PageMode { return h.c.pageModeOf(page) }

// SetPageMode switches page's coherence mode on processor proc's
// behalf (the policy engine's SetMode transition), reporting whether
// the mode changed.
func (h *Harness) SetPageMode(proc, page int, mode PageMode) bool {
	return (&PolicyActions{c: h.c, p: h.proc(proc)}).SetMode(page, mode)
}

// Replicate performs the broadcast-replication transition for page on
// processor proc's behalf (see PolicyActions.Replicate).
func (h *Harness) Replicate(proc, page int) bool {
	return (&PolicyActions{c: h.c, p: h.proc(proc)}).Replicate(page)
}

// MigrateHomeTo migrates page's superpage home to processor proc's
// protocol node on proc's behalf (see PolicyActions.MigrateHome).
func (h *Harness) MigrateHomeTo(proc, page int) bool {
	return (&PolicyActions{c: h.c, p: h.proc(proc)}).MigrateHome(page, proc)
}

// Clock returns processor proc's current virtual time.
func (h *Harness) Clock(proc int) int64 { return h.proc(proc).clk.Now() }

// ProtoNodes returns the number of protocol nodes (physical nodes under
// the two-level protocols, processors under the one-level ones).
func (h *Harness) ProtoNodes() int { return len(h.c.nodes) }

// ProtoNodeOf returns the protocol node hosting processor proc.
func (h *Harness) ProtoNodeOf(proc int) int { return h.c.protoOfProc(proc) }

// Directory returns the cluster's global directory.
func (h *Harness) Directory() *directory.Global { return h.c.dir }

// Layout returns the directory word layout in use.
func (h *Harness) Layout() directory.Layout { return h.c.lay }

// Master returns a copy of page's master copy (the home node's Memory
// Channel receive region).
func (h *Harness) Master(page int) []int64 {
	src := h.c.masters[page]
	out := make([]int64, len(src))
	copy(out, src)
	return out
}

// HomeOf returns the protocol node currently serving as page's home.
func (h *Harness) HomeOf(page int) int {
	pn, _ := h.c.homeOf(page)
	return pn
}

// SetFirstTouch enables or disables first-touch home relocation, the
// state EndInit normally switches on. The harness flips it directly so
// schedules can cover the home-migration paths without the barrier
// pair EndInit requires.
func (h *Harness) SetFirstTouch(on bool) { h.c.initFlag.Store(on) }

// PendingNotices returns the number of write notices queued in protocol
// node node's globally-accessible list.
func (h *Harness) PendingNotices(node int) int { return h.c.nodes[node].gwn.Pending() }

// QueuedNotices returns a snapshot of the pages with write notices
// queued for protocol node node, in posting order.
func (h *Harness) QueuedNotices(node int) []int { return h.c.nodes[node].gwn.Snapshot() }

// ProcNotices returns the pages pending on processor proc's
// second-level write-notice list.
func (h *Harness) ProcNotices(proc int) int { return h.proc(proc).pwn.Len() }

// PageState is a read-only snapshot of one protocol node's view of one
// page, for invariant checking: a copy of the node's page record plus
// the local page tables and the node's directory word.
type PageState struct {
	HasFrame bool    // the node holds a local copy
	Aliased  bool    // the local frame is the master copy itself
	HasTwin  bool    // a twin tracks local modifications
	Frame    []int64 // copy of the local frame (nil when absent)
	Twin     []int64 // copy of the twin (nil when absent)

	// Perms holds each local processor's page-table permission.
	Perms []directory.Perm

	// The three per-page logical timestamps of Section 2.3.
	FlushTS, UpdateTS, WnTS int64

	// OwnWord is the node's own directory word for the page.
	OwnWord directory.Word
}

// PageState snapshots protocol node node's state for page. It must not
// race with a running transition (see the Harness contract).
func (h *Harness) PageState(node, page int) PageState {
	n := h.c.nodes[node]
	st := n.pages[page].snapshot()
	st.Perms = make([]directory.Perm, n.vm.Procs())
	for i := range st.Perms {
		st.Perms[i] = n.vm.Proc(i).Get(page)
	}
	st.OwnWord = h.c.dir.Load(node, page, node)
	return st
}

// String describes the cluster shape, for counterexample headers.
func (h *Harness) String() string {
	c := h.c
	return fmt.Sprintf("%s %d:%d, %d pages x %d words, layout %s",
		c.cfg.Protocol, len(c.procs), c.cfg.ProcsPerNode, c.pages, c.cfg.PageWords,
		map[bool]string{true: "wide", false: "packed"}[c.lay.Wide()])
}
