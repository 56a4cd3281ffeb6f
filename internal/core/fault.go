package core

import (
	"runtime"

	"cashmere/internal/diff"
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

	for {
		if p.maybeBreakExclusive(page) {
			continue
		}
		n := p.n
		n.mu.Lock()
		if p.table.CanRead(page) {
			n.mu.Unlock()
			return // resolved by a concurrent local fault
		}
		if !p.ensureCurrentLocked(page) {
			n.mu.Unlock()
			continue // raced with a new exclusive holder
		}
		wasInvalid := n.vm.Loosest(page) == directory.Invalid
		p.table.Set(page, directory.ReadOnly)
		p.chargeProtocol(p.c.model.MProtect)
		if wasInvalid {
			excl := -1
			if e, ok := p.c.lay.Excl(p.ownWord(page)); ok {
				excl = e
			}
			p.publishOwnWord(page, excl)
		}
		n.mu.Unlock()
		return
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

	for {
		if p.maybeBreakExclusive(page) {
			continue
		}
		n := p.n
		n.mu.Lock()
		if p.table.CanWrite(page) {
			n.mu.Unlock()
			return
		}
		if !p.ensureCurrentLocked(page) {
			n.mu.Unlock()
			continue
		}

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
			if wasLoosest != directory.ReadWrite && !injectedDefects.skipExclusiveRepublish.Load() {
				e, _ := p.c.lay.Excl(own)
				p.publishOwnWord(page, e)
			}

		case p.c.cfg.Protocol.TwoLevelFamily() && p.c.dir.Sharers(n.id, page, n.id) == 0:
			// No other node is sharing: enter exclusive mode. The
			// page incurs no further coherence overhead — no twin,
			// no dirty-list entry, no flushes or notices — until
			// another node breaks it out (Section 2.4.1).
			n.dropTwin(page) // exclusive pages have no twin
			p.table.Set(page, directory.ReadWrite)
			p.chargeProtocol(p.c.model.MProtect)
			p.st.Inc(stats.ExclTransitions)
			p.emit(trace.EvExclEnter, page, 0, 0)
			p.publishOwnWord(page, p.global)

		default:
			// Actively shared: track modifications for the next
			// release.
			p.markDirty(page)
			if p.needsTwin(page) && n.twins[page] == nil {
				frame := *n.frames[page].p.Load()
				n.twins[page] = n.newTwin(frame)
				p.st.Inc(stats.TwinCreations)
				p.chargeProtocol(p.c.model.Twin)
				p.emit(trace.EvTwin, page, int64(p.c.cfg.PageWords), 0)
			}
			wasLoosest := n.vm.Loosest(page)
			p.table.Set(page, directory.ReadWrite)
			p.chargeProtocol(p.c.model.MProtect)
			if wasLoosest != directory.ReadWrite {
				p.publishOwnWord(page, -1)
			}
		}
		n.mu.Unlock()
		return
	}
}

// needsTwin reports whether p's node maintains a twin for a shared,
// writable page: yes except when the frame aliases the master copy
// (home node, or a home-opt alias — writes land in the master directly)
// and except under the write-doubling protocol, which propagates writes
// eagerly instead. Must be called after ensureCurrentLocked has settled
// the frame's aliasing.
func (p *Proc) needsTwin(page int) bool {
	if p.c.cfg.Protocol == OneLevelWrite {
		return false
	}
	return !p.n.frames[page].aliased.Load()
}

// ensureCurrentLocked makes the node's copy of page resident and
// current, fetching from the home node if necessary. It must be called
// with p.n.mu held. It returns false if the caller must retry because an
// exclusive holder elsewhere was discovered.
func (p *Proc) ensureCurrentLocked(page int) bool {
	c := p.c
	n := p.n

	if holder, _, ok := c.dir.ExclHolder(n.id, page); ok && holder != n.id {
		return false
	}

	homeProto, _ := c.homeOf(page)
	slot := &n.frames[page]
	meta := &n.meta[page]

	if p.isHomeLike(homeProto) {
		if slot.aliased.Load() {
			return true // already working on the master copy
		}
		f := slot.p.Load()
		// A home-like node normally maps the master copy directly. A
		// private frame can exist here only transiently, after a
		// first-touch relocation made us home: adopt the master once no
		// local writer is still working on the private frame (the
		// aliased bit, not home identity, drives flush and notice
		// decisions, so falling through to the diff-based path below
		// stays correct in the interim).
		if f == nil || !n.vm.HasWriters(page) {
			// Preserve any data the private frame holds that the
			// master lacks before adopting the master copy.
			if f != nil {
				if _, excl := p.c.lay.Excl(p.ownWord(page)); excl {
					diff.Copy(c.masters[page], *f)
				} else if tw := n.twins[page]; tw != nil {
					diff.FlushUpdate(*f, tw, c.masters[page])
				}
			}
			m := c.masters[page]
			slot.p.Store(&m)
			slot.aliased.Store(true)
			n.dropTwin(page)
			n.vm.Bump() // invalidate translations to the private frame
			meta.updateTS = n.lclock.Tick()
			return true
		}
	}
	if slot.aliased.Load() {
		// We used to be home (before a first-touch relocation moved
		// it); drop the alias and refetch as an ordinary sharer.
		slot.p.Store(nil)
		slot.aliased.Store(false)
		n.dropTwin(page)
		n.vm.Bump()
	}

	frame := slot.p.Load()
	wnOrAcq := meta.wnTS
	if p.acquireTS < wnOrAcq {
		wnOrAcq = p.acquireTS
	}
	switch {
	case frame == nil:
		f := make([]int64, c.cfg.PageWords)
		p.fetchPage(page, homeProto)
		diff.CopyIn(f, c.masters[page]) // f is not yet published
		slot.p.Store(&f)
		n.vm.Bump()
		meta.updateTS = n.lclock.Tick()
	case meta.updateTS < wnOrAcq:
		p.fetchPage(page, homeProto)
		p.applyUpdate(page, *frame)
		meta.updateTS = n.lclock.Tick()
	}
	if meta.updateTS < meta.wnTS && !injectedDefects.dropStaleMapNotice.Load() {
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
	return true
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

// applyUpdate merges freshly fetched master data into an existing local
// frame. With no concurrent local writers it is a plain copy. With
// concurrent writers, Cashmere-2L applies an incoming diff against the
// twin (two-way diffing, Section 2.5), while Cashmere-2LS shoots the
// writers down, flushes their outstanding changes, and discards the twin
// (Section 2.6). Called with p.n.mu held.
func (p *Proc) applyUpdate(page int, frame []int64) {
	c := p.c
	n := p.n
	twin := n.twins[page]
	master := c.masters[page]

	if twin == nil {
		diff.Copy(frame, master)
		return
	}

	if c.cfg.Protocol == TwoLevelSD {
		// Shootdown: revoke concurrent local write mappings, flush
		// their outstanding modifications to the home, and drop the
		// twin; writers re-twin at their next write fault. (The real
		// system halts the writers with an interrupt or poll-detected
		// message; a goroutine cannot be halted mid-store, so the
		// update is applied as remote-only differences — the same
		// memory outcome — while the full page-copy cost is charged.)
		n.wbuf = n.vm.Writers(page, n.wbuf[:0])
		writers := n.wbuf
		cost := c.model.ShootdownPoll
		if c.cfg.UseInterrupts {
			cost = c.model.ShootdownInterrupt
		}
		for _, w := range writers {
			if w == p.local {
				continue
			}
			n.vm.Proc(w).Set(page, directory.ReadOnly)
			p.st.Inc(stats.Shootdowns)
			p.chargeProtocol(cost)
			p.emit(trace.EvShootdown, page, int64(w), 0)
		}
		// Drain in-flight store-range runs on the page: a run that
		// validated its mapping before the revocation above may still
		// be writing (the real system's interrupt latency). The diffs
		// below must observe its stores — once the twin is dropped a
		// straggler would never be flushed — so wait for each revoked
		// writer to leave the page. Writers cannot start a new run:
		// the revocation is visible to their next validation, and the
		// fault they take then blocks on the node mutex we hold.
		revoked := int64(0)
		for _, w := range writers {
			if w == p.local {
				continue
			}
			revoked++
			victim := &n.procs[w].activeRange
			for victim.Load() == int64(page) {
				runtime.Gosched()
			}
		}
		p.emit(trace.EvShootdownDrain, page, revoked, 0)
		changed, lo, hi := diff.OutgoingRange(frame, twin, master)
		if changed > 0 {
			p.flushBytes(page, changed, lo, hi)
		}
		diff.Incoming(frame, twin, master)
		n.dropTwin(page)
		n.meta[page].flushTS = n.lclock.Tick()
		return
	}

	// Two-way diffing: apply only the remote modifications, to both the
	// working page and the twin, with no intra-node synchronization.
	changed := diff.Incoming(frame, twin, master)
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
