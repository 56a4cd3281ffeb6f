package core

import (
	"cashmere/internal/directory"
	"cashmere/internal/stats"
	"cashmere/internal/trace"
)

// Page fault handling (paper Section 2.4.1).
//
// The access fast path consults the processor's software page table; a
// missing permission lands here. A read fault maps the page, fetching a
// fresh copy from the home node when the local copy is missing or stale
// (its update timestamp precedes both its write-notice timestamp and the
// processor's acquire timestamp). A write fault additionally creates a
// twin and a dirty-list entry when other nodes share the page, or moves
// the page into exclusive mode when they don't.

// readFault services a read access violation on page, recording the
// fault's virtual-time span when tracing is on.
func (p *Proc) readFault(page int) {
	if p.ring == nil {
		p.doReadFault(page)
		return
	}
	begin := p.clk.Now()
	p.doReadFault(page)
	p.emitSpan(trace.EvReadFault, page, begin, 0, 0)
}

func (p *Proc) doReadFault(page int) {
	p.st.Inc(stats.ReadFaults)
	p.chargeProtocol(p.c.model.PageFault)
	if ap := p.c.cfg.Adaptive; ap != nil {
		ap.NoteReadFault(page, p.global)
	}
	p.drainDoubled()
	p.maybeFirstTouch(page)

	for p.maybeBreakExclusive(page) {
	}
	p.ensureCurrent(page)
	wasInvalid := p.n.vm.Loosest(page) == directory.Invalid
	p.table.Set(page, directory.ReadOnly)
	p.chargeProtocol(p.c.model.MProtect)
	if wasInvalid {
		excl := -1
		if e, ok := p.c.lay.Excl(p.ownWord(page)); ok {
			excl = e
		}
		p.publishOwnWord(page, excl)
	}
}

// writeFault services a write access violation on page, recording the
// fault's virtual-time span when tracing is on.
func (p *Proc) writeFault(page int) {
	if p.ring == nil {
		p.doWriteFault(page)
		return
	}
	begin := p.clk.Now()
	p.doWriteFault(page)
	p.emitSpan(trace.EvWriteFault, page, begin, 0, 0)
}

func (p *Proc) doWriteFault(page int) {
	p.st.Inc(stats.WriteFaults)
	p.chargeProtocol(p.c.model.PageFault)
	if ap := p.c.cfg.Adaptive; ap != nil {
		ap.NoteWriteFault(page, p.global)
	}
	p.maybeDemoteBroadcast(page)
	p.drainDoubled()
	p.maybeFirstTouch(page)

	for p.maybeBreakExclusive(page) {
	}
	p.ensureCurrent(page)
	n := p.n

	own := p.ownWord(page)
	_, alreadyExcl := p.c.lay.Excl(own)

	switch {
	case alreadyExcl:
		// This node holds the page exclusively; intra-node hardware
		// coherence lets us join for free. The directory word must
		// still be republished when our mapping loosens the node's
		// summary (the one-level protocols re-enter exclusive mode at
		// a release after a break downgraded every local mapping to
		// read-only, so the exclusive word can record ro) — read
		// faults do the same when they raise the summary out of
		// Invalid.
		wasLoosest := n.vm.Loosest(page)
		p.table.Set(page, directory.ReadWrite)
		p.chargeProtocol(p.c.model.MProtect)
		if wasLoosest != directory.ReadWrite && !p.c.defects.skipExclusiveRepublish {
			e, _ := p.c.lay.Excl(own)
			p.publishOwnWord(page, e)
		}

	case p.c.cfg.Protocol.TwoLevelFamily() && p.c.dir.Sharers(page, n.id) == 0:
		// No other node is sharing: enter exclusive mode. The
		// page incurs no further coherence overhead — no twin,
		// no dirty-list entry, no flushes or notices — until
		// another node breaks it out (Section 2.4.1).
		n.pages[page].retireTwin(n) // exclusive pages have no twin
		p.table.Set(page, directory.ReadWrite)
		p.chargeProtocol(p.c.model.MProtect)
		p.st.Inc(stats.ExclTransitions)
		p.emit(trace.EvExclEnter, page, 0, 0)
		p.publishOwnWord(page, p.global)

	default:
		// Actively shared: track modifications for the next
		// release.
		p.markDirty(page)
		p.twinPage(n, page, n.pages[page].frame)
		wasLoosest := n.vm.Loosest(page)
		p.table.Set(page, directory.ReadWrite)
		p.chargeProtocol(p.c.model.MProtect)
		if wasLoosest != directory.ReadWrite {
			p.publishOwnWord(page, -1)
		}
	}
}

// twinPage twins node x's copy of page from src if the copy needs a
// twin (pageState.makeTwin), charging the work to p. Called after
// ensureCurrent or a break has settled the frame.
func (p *Proc) twinPage(x *node, page int, src []int64) {
	if x.pages[page].makeTwin(p.c, x, src) {
		p.st.Inc(stats.TwinCreations)
		p.chargeProtocol(p.c.model.Twin)
		p.emit(trace.EvTwin, page, int64(p.c.cfg.PageWords), 0)
	}
}

// ensureCurrent makes the node's copy of page resident and current,
// fetching from the home node if necessary. No other node may hold the
// page exclusively (the fault handlers break every such holder first).
func (p *Proc) ensureCurrent(page int) {
	c := p.c
	n := p.n

	homeProto, _ := c.homeOf(page)
	s := &n.pages[page]

	if p.isHomeLike(homeProto) {
		if s.aliased {
			return // already working on the master copy
		}
		// A home-like node normally maps the master copy directly. A
		// private frame can exist here only transiently, after a
		// first-touch relocation made us home: adopt the master once no
		// local writer is still working on the private frame (the
		// aliased bit, not home identity, drives flush and notice
		// decisions, so falling through to the diff-based path below
		// stays correct in the interim).
		if s.frame == nil || !n.vm.HasWriters(page) {
			_, excl := c.lay.Excl(p.ownWord(page))
			s.adoptMaster(c, n, page, excl)
			return
		}
	}
	if s.aliased {
		// We used to be home (before a relocation moved it): drop the
		// alias, which revokes every local mapping of it, and refetch
		// as an ordinary sharer.
		s.drop(n, page, false)
	}

	wnOrAcq := s.wnTS
	if p.acquireTS < wnOrAcq {
		wnOrAcq = p.acquireTS
	}
	switch {
	case s.frame == nil:
		p.fetchPage(page, homeProto)
		s.refresh(c, n, page)
	case s.updateTS < wnOrAcq:
		p.fetchPage(page, homeProto)
		p.applyUpdate(page)
	}
	if s.updateTS < s.wnTS && !c.defects.dropStaleMapNotice {
		// The copy being mapped predates a write notice the node has
		// already drained. Release consistency lets this processor use
		// it until its next acquire (its acquire timestamp precedes the
		// notice), but the acquire must then invalidate the mapping —
		// and the notice distribution only reached the processors
		// mapped at drain time. Post the notice to our own second-level
		// list so the invalidation is not lost.
		p.pwn.Add(page)
		p.chargeProtocol(p.c.model.LLSC)
	}
}

// fetchPage charges a page transfer from the home node: the fixed
// minimum transfer cost (Table 1) and the network occupancy of the page
// data, whichever completes later.
func (p *Proc) fetchPage(page, homeProto int) {
	c := p.c
	physHome := c.physOfProto(homeProto)
	local := physHome == p.n.phys
	pageBytes := int64(c.cfg.PageWords) * wordBytes
	begin := p.clk.Now()

	p.st.Inc(stats.PageTransfers)
	p.st.Data(pageBytes)

	fixed := c.model.PageTransfer(local, c.cfg.Protocol.TwoLevelFamily())
	if c.cfg.UseInterrupts {
		if local {
			fixed += c.model.IntraNodeInterrupt
		} else {
			fixed += c.model.InterNodeInterrupt
		}
	}
	arrival := c.net.Transfer(physHome, pageBytes, p.clk.Now())
	target := p.clk.Now() + fixed
	if arrival > target {
		target = arrival
	}
	p.chargeWait(target)
	p.emitSpan(trace.EvPageFetch, page, begin, pageBytes, int64(homeProto))
}

// applyUpdate merges freshly fetched master data into the node's
// existing frame and stamps the update. With no concurrent local
// writers it is a plain copy. With concurrent writers, Cashmere-2L
// applies an incoming diff against the twin (two-way diffing, Section
// 2.5), while Cashmere-2LS shoots the writers down, flushes their
// outstanding changes, and discards the twin (Section 2.6).
func (p *Proc) applyUpdate(page int) {
	c := p.c
	n := p.n
	s := &n.pages[page]

	if s.twin == nil {
		s.refresh(c, n, page)
		return
	}

	if c.cfg.Protocol == TwoLevelSD {
		// Shootdown: revoke concurrent local write mappings, flush
		// their outstanding modifications to the home, and drop the
		// twin; writers re-twin at their next write fault. (The real
		// system halts the writers with an interrupt or poll-detected
		// message; here they are not running, and the update is
		// applied as remote-only differences — the same memory outcome
		// — while the full page-copy cost is charged.)
		n.wbuf = n.vm.Writers(page, n.wbuf[:0])
		writers := n.wbuf
		cost := c.model.ShootdownPoll
		if c.cfg.UseInterrupts {
			cost = c.model.ShootdownInterrupt
		}
		revoked := int64(0)
		for _, w := range writers {
			if w == p.local {
				continue
			}
			n.vm.Proc(w).Set(page, directory.ReadOnly)
			p.st.Inc(stats.Shootdowns)
			p.chargeProtocol(cost)
			p.emit(trace.EvShootdown, page, int64(w), 0)
			revoked++
		}
		frame, master := s.frame, c.masters[page]
		changed, lo, hi := flushUpdate(frame, s.twin, master)
		mergeIncoming(frame, s.twin, master, c.defects.incomingClobber)
		p.emit(trace.EvShootdownDrain, page, revoked, 0)
		if changed > 0 {
			p.flushBytes(page, changed, lo, hi)
		}
		s.retireTwin(n)
		s.flushTS = n.lclock.Tick()
		s.updateTS = n.lclock.Tick()
		return
	}

	// Two-way diffing: apply only the remote modifications, to both the
	// working page and the twin, with no intra-node synchronization.
	changed := s.refresh(c, n, page)
	p.st.Inc(stats.IncomingDiffs)
	p.chargeProtocol(c.model.IncomingDiff(changed, c.cfg.PageWords))
	p.emit(trace.EvDiffIn, page, int64(changed), 0)
}

// flushBytes accounts for changed words of diff data flowing from p's
// node to page's home: protocol cost for the diff, plus network
// occupancy. lo/hi is the inclusive changed-word span (-1, -1 when
// unknown), recorded on the diff event for the hot-page profiler's
// false-sharing classifier.
func (p *Proc) flushBytes(page, changedWords, lo, hi int) {
	c := p.c
	homeProto, _ := c.homeOf(page)
	physHome := c.physOfProto(homeProto)
	localDiff := physHome == p.n.phys
	bytes := int64(changedWords) * wordBytes

	p.chargeProtocol(c.model.OutgoingDiff(changedWords, c.cfg.PageWords, localDiff))
	p.st.Data(bytes)
	arrival := c.net.Transfer(p.n.phys, bytes, p.clk.Now())
	p.chargeWait(arrival)
	p.emit(trace.EvDiffOut, page, int64(changedWords), trace.PackWordSpan(lo, hi))
}
