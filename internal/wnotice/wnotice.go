// Package wnotice implements the write-notice lists of the Cashmere
// protocols (paper Section 2.3, Figure 4).
//
// A write notice tells a node that a page it shares has been modified
// elsewhere; notices take effect (as invalidations) at the next acquire.
// Each node has one globally-accessible list that every releaser posts
// to. On an acquire, a processor drains it and distributes the notices
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
// Global is safe for concurrent use by any mix of posters and drainers:
// one mutex covers the list, so every read (Drain, Pending, Has,
// Snapshot) is an atomic snapshot with respect to concurrent posts, and
// a drain returns notices in posting order. PerProc (and the NLE lists
// built on it) is also internally locked, but its intended sharing is
// narrower: remote processors Post under the owning node's big lock,
// and only the owning processor Flushes.
package wnotice

import (
	"slices"
	"sync"
)

// Global is one node's globally-accessible write notice list, in
// posting order.
type Global struct {
	mu    sync.Mutex
	pages []int
}

// NewGlobal returns an empty list. senders is unused; it stays until
// the repository benchmark, which passes it, changes.
func NewGlobal(senders int) *Global { return &Global{} }

// Post appends a notice for page. from is unused; it stays until the
// repository benchmark, which passes it, changes. Duplicates are
// filtered later at the per-processor lists.
func (g *Global) Post(from, page int) {
	g.mu.Lock()
	g.pages = append(g.pages, page)
	g.mu.Unlock()
}

// Drain removes and returns all queued notices in posting order. The
// result may contain duplicates.
func (g *Global) Drain() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := slices.Clone(g.pages)
	g.pages = g.pages[:0]
	return out
}

// Pending returns the number of queued notices.
func (g *Global) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pages)
}

// Has reports whether a notice for page is queued.
func (g *Global) Has(page int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Contains(g.pages, page)
}

// Snapshot returns a copy of the queued notices, in posting order,
// without draining them. Intended for verification harnesses.
func (g *Global) Snapshot() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.pages)
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
