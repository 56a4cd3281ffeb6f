package core

import (
	"cashmere/internal/diff"
	"cashmere/internal/directory"
	"cashmere/internal/stats"
	"cashmere/internal/trace"
)

// Synchronization entry points and the consistency actions they trigger
// (paper Sections 2.4.2 and 2.4.3).
//
// Releases flush the processor's dirty and no-longer-exclusive pages to
// their home nodes and send write notices to sharing nodes. Acquires
// drain the node's global write-notice list, distribute the notices to
// the per-processor lists of locally-mapped processors, and invalidate
// the acquirer's mappings for pages whose update timestamp precedes
// their write-notice timestamp.

// Lock acquires application lock i, then performs acquire-side
// consistency actions.
func (p *Proc) Lock(i int) {
	c := p.c
	begin := p.clk.Now()
	cost := c.model.LockAcquire(c.cfg.Protocol.TwoLevelFamily())
	held := c.locks[i].Acquire(p.n.phys, p.clk.Now(), cost)
	p.chargeProtocol(cost)
	p.chargeWait(held)
	p.st.Inc(stats.LockAcquires)
	p.acquireActions()
	p.emitSpan(trace.EvLock, -1, begin, int64(i), 0)
}

// Unlock performs release-side consistency actions, then releases
// application lock i.
func (p *Proc) Unlock(i int) {
	begin := p.clk.Now()
	p.releaseActions()
	p.c.locks[i].Release(p.n.phys, p.clk.Now())
	p.emitSpan(trace.EvUnlock, -1, begin, int64(i), 0)
}

// SetFlag performs release-side consistency actions and raises flag i.
func (p *Proc) SetFlag(i int) {
	begin := p.clk.Now()
	p.releaseActions()
	p.c.flags[i].Set(p.n.phys, p.clk.Now())
	p.emitSpan(trace.EvFlagSet, -1, begin, int64(i), 0)
}

// WaitFlag blocks until flag i is raised, then performs acquire-side
// consistency actions. Under an adaptive policy engine, waiters that
// were blocked when the flag was raised — who all resume at the same
// virtual time — run their acquire actions serially in descending
// global processor id (the deterministic tie-break for the equal-time
// wakeup; see msync.Flag.WaitOrdered), with the done handle releasing
// the next waiter. That removes the Gauss/2L+A bistability the
// decision gate exposes (docs/ADAPTIVE.md). The non-adaptive
// protocols keep the free broadcast wakeup whose schedule the golden
// paper configurations were pinned under.
func (p *Proc) WaitFlag(i int) {
	begin := p.clk.Now()
	id := -1 // opt out of the wakeup ordering
	if p.c.cfg.Adaptive != nil {
		id = p.global
	}
	t, done := p.c.flags[i].WaitOrdered(p.clk.Now(), id)
	p.chargeWait(t)
	p.st.Inc(stats.LockAcquires)
	p.acquireActions()
	done()
	p.emitLink(trace.EvMsgDeliver, t, -1, int64(i), 0)
	p.emitSpan(trace.EvFlagWait, -1, begin, int64(i), 0)
}

// Barrier synchronizes all processors. On arrival each processor
// flushes the dirty pages for which it is the last arriving local
// writer (earlier arrivers delegate via no-longer-exclusive notices, so
// a page shared by several local writers is flushed exactly once); the
// departure phase performs acquire-side consistency actions.
func (p *Proc) Barrier() {
	c := p.c
	n := p.n
	begin := p.clk.Now()
	p.drainDoubled()

	n.mu.Lock()
	n.lclock.Tick()
	releaseStart := n.lclock.Now()
	n.arrived[p.local] = true
	p.flushForBarrier(releaseStart)
	n.mu.Unlock()

	if p.global == 0 {
		p.st.Inc(stats.Barriers)
	}
	released := c.bar.Wait(p.clk.Now())
	p.chargeWait(released)

	if c.cfg.Adaptive != nil {
		// Decision epoch: every processor is protocol-quiescent between
		// the rendezvous above and the decision gate, so processor 0's
		// policy transitions run against a stopped cluster.
		p.decidePolicyEpoch()
	}

	n.mu.Lock()
	n.arrived[p.local] = false
	n.mu.Unlock()

	p.acquireActions()
	p.emitSpan(trace.EvBarrier, -1, begin, 0, 0)
}

// flushForBarrier applies the last-arriving-local-writer rule to the
// processor's dirty and NLE pages. Called with p.n.mu held.
func (p *Proc) flushForBarrier(releaseStart int64) {
	n := p.n
	work := p.nle.Flush()
	work = append(work, p.dirty...)
	for _, page := range work {
		if w := p.pendingWriter(page); w >= 0 {
			// A local writer has not arrived yet; it flushes for all
			// of us (initiating a flush now would only force it to
			// flush again).
			n.procs[w].nle.Add(page)
			// Still give up our own write permission so our next
			// write is trapped.
			p.downgradeAfterFlush(page)
			continue
		}
		p.flushPage(page, releaseStart)
	}
	p.clearDirty()
}

// pendingWriter returns a local processor (other than p) that holds a
// write mapping for page and has not arrived at the current barrier, or
// -1 if none. Called with p.n.mu held.
func (p *Proc) pendingWriter(page int) int {
	n := p.n
	for l := 0; l < n.vm.Procs(); l++ {
		if l == p.local || n.arrived[l] {
			continue
		}
		if n.vm.Proc(l).Get(page) == directory.ReadWrite {
			return l
		}
	}
	return -1
}

// BeginInit marks the start of the program initialization epoch: until
// the matching EndInit, protocol operations run normally but charge no
// virtual time (the paper's full-length executions amortize
// initialization; a scaled-down problem would otherwise be dominated by
// it). Every processor must call it.
func (p *Proc) BeginInit() {
	p.Barrier()
	if p.global == 0 {
		p.c.charging.Store(false)
	}
	p.Barrier()
}

// EndInit marks the end of program initialization: charging resumes and
// pages touched from here on have their homes relocated to the first
// toucher (Section 2.3). Every processor must call it.
func (p *Proc) EndInit() {
	p.Barrier()
	if p.global == 0 {
		p.c.initFlag.Store(true)
		p.c.charging.Store(true)
	}
	p.Barrier()
}

// Warmup runs f on every processor with virtual-time charging
// suspended: applications touch their working sets once so that
// first-touch relocation and the initial fetch/exclusive-break storm
// happen outside the measured region, following the SPLASH methodology
// of excluding cold-start from timing. Every processor must call it.
func (p *Proc) Warmup(f func()) {
	p.Barrier()
	if p.global == 0 {
		p.c.charging.Store(false)
	}
	p.Barrier()
	f()
	p.Barrier()
	if p.global == 0 {
		p.c.charging.Store(true)
	}
	p.Barrier()
}

// releaseActions implements the release operation of Section 2.4.3.
func (p *Proc) releaseActions() {
	n := p.n
	p.drainDoubled()

	n.mu.Lock()
	n.lclock.Tick()
	releaseStart := n.lclock.Now()
	for _, page := range p.nle.Flush() {
		p.flushPage(page, releaseStart)
	}
	for _, page := range p.dirty {
		p.flushPage(page, releaseStart)
	}
	p.clearDirty()
	n.mu.Unlock()
}

// flushPage flushes one dirty page to its home and sends write notices
// to sharing nodes. Called with p.n.mu held.
func (p *Proc) flushPage(page int, releaseStart int64) {
	c := p.c
	n := p.n
	s := &n.pages[page]

	if _, excl := p.c.lay.Excl(p.ownWord(page)); excl {
		return // exclusive pages incur no coherence overhead
	}
	if s.flushTS > releaseStart {
		// A flush that began after this release began already covers
		// our modifications (overlapping-release rule).
		return
	}
	frame := s.local()
	if frame == nil {
		return
	}

	// Frames that alias the master copy (home node, home-opt) write
	// through directly and need no data flush; private frames flush
	// their twin-tracked modifications to the master.
	aliased := s.aliased.Load()
	if !aliased && s.twin != nil {
		n.wbuf = n.vm.Writers(page, n.wbuf[:0])
		concurrent := false
		for _, w := range n.wbuf {
			if w != p.local {
				concurrent = true
			}
		}
		mu := &c.pageMu[page]
		mu.Lock()
		changed, lo, hi := diff.FlushUpdateRange(frame, s.twin, c.masters[page])
		mu.Unlock()
		if ap := c.cfg.Adaptive; ap != nil {
			ap.NoteFlush(page, p.global, changed)
		}
		if changed > 0 {
			p.st.Inc(stats.PageFlushes)
			if concurrent {
				p.st.Inc(stats.FlushUpdates)
			}
			p.flushBytes(page, changed, lo, hi)
		}
		s.flushTS = n.lclock.Tick()
	}

	// One-level protocols move a page with no other sharers into
	// exclusive mode at a release (Section 2.6); it then stops
	// participating in coherence transactions entirely. Exclusive pages
	// have no twin: the flush-update above left the twin equal to the
	// master, and keeping it would let exclusive-mode writes silently
	// diverge from it — after a later break (which flushes the frame but
	// sees an existing twin) the stale twin would misclassify those
	// already-flushed words as unreleased local writes. Only a current
	// copy may enter — one the node still maps, that postdates every
	// notice it has applied, and with no notice for it still queued: an
	// exclusive holder skips the page at its acquires, and a break
	// flushes the whole frame to the master, so a stale frame (a
	// no-longer-exclusive page comes back here with its mapping
	// invalidated; a sharer can write, release and leave the set before
	// this node acquires) would be read past the next acquire and would
	// overwrite other nodes' released writes.
	//
	// The sharing set is read under the page's shareMu, after the data
	// above reached the master: a fault copies the master and publishes
	// its mapping under the same lock, so it either sees the flushed
	// data or is in the set and gets a notice.
	sh := &c.shareMu[page]
	sh.Lock()
	if !c.cfg.Protocol.TwoLevelFamily() && !aliased && c.dir.Sharers(page, n.id) == 0 &&
		(c.defects.staleExclusiveEntry ||
			n.vm.Loosest(page) != directory.Invalid && s.updateTS >= s.wnTS && !n.gwn.Has(page)) {
		if !c.defects.keepExclusiveTwin {
			s.retireTwin(n)
		}
		p.st.Inc(stats.ExclTransitions)
		p.emit(trace.EvExclEnter, page, 0, 0)
		p.publishOwnWord(page, p.global)
		sh.Unlock()
		return
	}

	// Send write notices to every sharing node except ourselves and
	// nodes working on the master copy directly (the home and home-opt
	// aliases receive the data itself, paper Section 2.4.3).
	for x := range c.nodes {
		if x == n.id {
			continue
		}
		if c.lay.Perm(c.dir.Load(n.id, page, x)) == directory.Invalid {
			continue
		}
		if c.nodes[x].pages[page].aliased.Load() {
			continue
		}
		p.postNotice(x, page)
		p.emit(trace.EvNoticeSend, page, int64(x), 0)
	}
	sh.Unlock()

	p.downgradeAfterFlush(page)
}

// downgradeAfterFlush removes p's write permission for page so future
// modifications are trapped. Called with p.n.mu held.
func (p *Proc) downgradeAfterFlush(page int) {
	if p.table.Get(page) != directory.ReadWrite {
		return
	}
	p.table.Set(page, directory.ReadOnly)
	p.chargeProtocol(p.c.model.MProtect)
	if p.n.vm.Loosest(page) != directory.ReadWrite {
		p.publishOwnWord(page, -1)
	}
}

// postNotice delivers a write notice for page to node x. Under the
// lock-based ablation the post holds x's notice lock.
func (p *Proc) postNotice(x, page int) {
	c := p.c
	to := c.nodes[x]
	if c.cfg.LockBasedMeta {
		held := to.wnLock.Acquire(p.clk.Now(), c.model.GlobalLock)
		to.gwn.Post(p.n.id, page)
		to.wnLock.Release(held)
		p.chargeWait(held)
	} else {
		to.gwn.Post(p.n.id, page)
		p.chargeProtocol(c.model.DirectoryUpdate)
	}
	p.st.Inc(stats.WriteNotices)
	p.st.Data(wordBytes)
}

// acquireActions implements the acquire operation of Section 2.4.2.
func (p *Proc) acquireActions() {
	c := p.c
	n := p.n
	p.drainDoubled()

	n.mu.Lock()
	n.lclock.Tick()
	p.acquireTS = n.lclock.Now()

	var notices []int
	if c.cfg.LockBasedMeta {
		held := n.wnLock.Acquire(p.clk.Now(), c.model.GlobalLock)
		notices = n.gwn.Drain()
		n.wnLock.Release(held)
		p.chargeWait(held)
	} else {
		notices = n.gwn.Drain()
	}
	for _, page := range notices {
		s := &n.pages[page]
		s.wnTS = n.lclock.Now()
		if s.aliased.Load() {
			continue // master alias is never stale
		}
		n.wbuf = n.vm.Mapped(page, n.wbuf[:0])
		for _, l := range n.wbuf {
			n.procs[l].pwn.Add(page)
		}
		p.chargeProtocol(c.model.LLSC)
	}

	for _, page := range p.pwn.Flush() {
		if s := &n.pages[page]; s.updateTS >= s.wnTS {
			continue // already updated by another local processor
		}
		if _, excl := p.c.lay.Excl(p.ownWord(page)); excl {
			continue
		}
		if c.pageModeOf(page) != ModeInvalidate && p.refreshPage(page) {
			// Write-update mode: the notice was serviced by refreshing
			// the frame in place; every local mapping stays valid.
			continue
		}
		if p.table.Get(page) == directory.Invalid {
			continue
		}
		p.table.Set(page, directory.Invalid)
		p.chargeProtocol(c.model.MProtect)
		p.emit(trace.EvNoticeApply, page, 0, 0)
		if !c.cfg.Protocol.TwoLevelFamily() && n.vm.Loosest(page) == directory.Invalid {
			// Only the one-level protocols remove themselves from the
			// sharing set at an acquire (Section 2.6). Cashmere-2L
			// keeps the node in the set even with no valid mappings —
			// this is what makes exclusive-mode transitions rare
			// (Table 3 shows zero for SOR): a node that shared a page
			// once keeps receiving notices instead of cycling the page
			// in and out of exclusive mode.
			p.publishOwnWord(page, -1)
		}
	}
	n.mu.Unlock()
}
