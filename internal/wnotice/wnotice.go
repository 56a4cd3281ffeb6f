// Package wnotice implements the write-notice lists of the Cashmere
// protocols (paper Section 2.3, Figure 4).
//
// A write notice tells a node that a page it shares has been modified
// elsewhere; notices take effect (as invalidations) at the next acquire.
// To avoid global locks, each node's globally-accessible list is split
// into bins, one per remote node, so that every bin has a single writer.
// On an acquire, a processor drains all bins and distributes the notices
// to the per-processor second-level lists of the local processors with
// mappings for the page.
//
// Per-processor lists pair a bitmap with a queue under a local (ll/sc
// class) lock: posting an already-present notice is a no-op, which keeps
// redundant notices from ballooning the queues.
//
// The same bitmap+queue structure serves the no-longer-exclusive (NLE)
// lists, which record pages a processor must start flushing because
// another node broke them out of exclusive mode.
//
// # Concurrency
//
// Global is safe for concurrent use by any mix of posters and a
// drainer: each bin has its own mutex, Post(b, ...) contends only with
// drains, and the single-writer-per-bin discipline means two Posts to
// one bin never race at the protocol level. Drain (and the Pending and
// Snapshot read-side helpers) lock every bin before touching any, so a
// drain is a single atomic snapshot with respect to concurrent posts. PerProc (and the NLE lists
// built on it) is also internally locked, but its intended sharing is
// narrower: remote processors Post under the owning node's big lock,
// and only the owning processor Flushes. Locked (the global-lock
// ablation's list) serializes every operation behind one sim.VLock and
// additionally models the lock's virtual-time cost.
package wnotice

import (
	"slices"
	"sync"

	"cashmere/internal/sim"
)

// Global is one node's globally-accessible write notice list: one bin
// per sending protocol node. Bin b is written only by node b, mirroring
// the single-writer discipline that removes the need for global locks.
type Global struct {
	bins []bin
}

type bin struct {
	mu    sync.Mutex
	pages []int
}

// NewGlobal returns a list accepting notices from senders protocol
// nodes.
func NewGlobal(senders int) *Global {
	return &Global{bins: make([]bin, senders)}
}

// Post appends a notice for page from sending node from. Notices from
// one sender are delivered in order; duplicates are filtered later at
// the per-processor lists.
func (g *Global) Post(from, page int) {
	b := &g.bins[from]
	b.mu.Lock()
	b.pages = append(b.pages, page)
	b.mu.Unlock()
}

// Drain removes and returns all queued notices across all bins, as one
// atomic snapshot: every bin is locked (in bin order) before any is
// read, so concurrent posts either land entirely before the drain or
// entirely after it. Draining bins one at a time instead would let a
// drain in flight collect a notice from a high-numbered bin while
// missing a causally-earlier one already posted to a lower-numbered bin
// the drainer had passed — the acquirer would then apply an
// invalidation without the one that preceded it. The result may contain
// duplicates.
func (g *Global) Drain() []int {
	for i := range g.bins {
		g.bins[i].mu.Lock()
	}
	var out []int
	for i := range g.bins {
		b := &g.bins[i]
		out = append(out, b.pages...)
		b.pages = b.pages[:0]
	}
	for i := range g.bins {
		g.bins[i].mu.Unlock()
	}
	return out
}

// Pending returns the total number of queued notices, counted under the
// same all-bins lock as Drain so the count is a consistent snapshot
// rather than a sum over moving bins.
func (g *Global) Pending() int {
	for i := range g.bins {
		g.bins[i].mu.Lock()
	}
	n := 0
	for i := range g.bins {
		n += len(g.bins[i].pages)
	}
	for i := range g.bins {
		g.bins[i].mu.Unlock()
	}
	return n
}

// Has reports whether a notice for page is queued in any bin, under the
// same all-bins lock as Drain.
func (g *Global) Has(page int) bool {
	for i := range g.bins {
		g.bins[i].mu.Lock()
	}
	found := false
	for i := range g.bins {
		found = found || slices.Contains(g.bins[i].pages, page)
	}
	for i := range g.bins {
		g.bins[i].mu.Unlock()
	}
	return found
}

// Snapshot returns a copy of the queued notices across all bins, in bin
// order, without draining them, under the same all-bins lock as Drain.
// Intended for verification harnesses.
func (g *Global) Snapshot() []int {
	for i := range g.bins {
		g.bins[i].mu.Lock()
	}
	var out []int
	for i := range g.bins {
		out = append(out, g.bins[i].pages...)
	}
	for i := range g.bins {
		g.bins[i].mu.Unlock()
	}
	return out
}

// PerProc is a per-processor notice list: a bitmap plus a queue under a
// local lock. It serves both second-level write-notice lists and
// no-longer-exclusive lists.
type PerProc struct {
	mu     sync.Mutex
	bitmap []uint64
	queue  []int
}

// NewPerProc returns a list able to hold notices for pages pages.
func NewPerProc(pages int) *PerProc {
	return &PerProc{bitmap: make([]uint64, (pages+63)/64)}
}

// Add posts a notice for page. It reports whether the notice was newly
// enqueued (false when one was already pending, in which case no action
// was needed).
func (p *PerProc) Add(page int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, b := page/64, uint64(1)<<(page%64)
	if p.bitmap[w]&b != 0 {
		return false
	}
	p.bitmap[w] |= b
	p.queue = append(p.queue, page)
	return true
}

// Flush drains the queue and clears the bitmap, returning the pending
// pages in posting order without duplicates.
func (p *PerProc) Flush() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return nil
	}
	out := make([]int, len(p.queue))
	copy(out, p.queue)
	p.queue = p.queue[:0]
	for i := range p.bitmap {
		p.bitmap[i] = 0
	}
	return out
}

// Len returns the number of pending notices.
func (p *PerProc) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Has reports whether a notice for page is pending.
func (p *PerProc) Has(page int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bitmap[page/64]&(uint64(1)<<(page%64)) != 0
}

// Locked is the Section 3.3.5 ablation variant: a single per-node list
// guarded by a cluster-wide global lock. Callers acquire the lock
// (paying the global lock latency), mutate, and release with their
// updated virtual time.
type Locked struct {
	lock  sim.VLock
	mu    sync.Mutex // guards pages for Has, which charges no virtual time
	pages []int
}

// NewLocked returns an empty lock-based list.
func NewLocked() *Locked { return &Locked{} }

// Post appends a notice for page at virtual time now, returning the
// time after waiting for and holding the global lock.
func (l *Locked) Post(now int64, page int, lockCost int64) int64 {
	now = l.lock.Acquire(now, lockCost)
	l.mu.Lock()
	l.pages = append(l.pages, page)
	l.mu.Unlock()
	l.lock.Release(now)
	return now
}

// Drain removes and returns all notices at virtual time now, returning
// the notices and the time after the locked traversal.
func (l *Locked) Drain(now int64, lockCost int64) ([]int, int64) {
	now = l.lock.Acquire(now, lockCost)
	l.mu.Lock()
	out := make([]int, len(l.pages))
	copy(out, l.pages)
	l.pages = l.pages[:0]
	l.mu.Unlock()
	l.lock.Release(now)
	return out, now
}

// Has reports whether a notice for page is queued, without charging
// virtual time.
func (l *Locked) Has(page int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Contains(l.pages, page)
}

// Pending returns the number of queued notices without charging
// virtual time. Intended for verification harnesses.
func (l *Locked) Pending() int { return len(l.pages) }

// Snapshot returns a copy of the queued notices without draining them
// or charging virtual time. Intended for verification harnesses.
func (l *Locked) Snapshot() []int {
	out := make([]int, len(l.pages))
	copy(out, l.pages)
	return out
}
