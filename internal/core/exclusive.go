package core

import (
	"cashmere/internal/diff"
	"cashmere/internal/directory"
	"cashmere/internal/stats"
	"cashmere/internal/trace"
)

// Exclusive mode (paper Sections 2.2 and 2.4.1).
//
// A node holding a page no other node is sharing may treat it as
// private: no twin, no dirty-list entry, no flushes or write notices.
// When another node faults on the page, it sends an explicit request to
// a processor on the holder node; the holder flushes the entire page to
// the home node, leaves exclusive mode, twins the page for any remaining
// local writers (queuing no-longer-exclusive notices they will find at
// their next release), and downgrades the responding processor's
// mapping to catch future writes.

// maybeBreakExclusive checks the directory for an exclusive holder of
// page on another node and, if found, breaks the page out of exclusive
// mode. It reports whether a break was performed (the caller's fault
// handler should re-run). Called with no node locks held.
func (p *Proc) maybeBreakExclusive(page int) bool {
	holderNode, holderProc, ok := p.c.dir.ExclHolder(page)
	if !ok || holderNode == p.n.id {
		return false
	}
	p.breakExclusive(page, holderNode, holderProc)
	return true
}

// breakExclusive performs the explicit-request exchange with the holder
// node, doing the holder's side of the work on its behalf (the request
// is noticed at the holder's next poll; its handler cost is charged to
// the requester's wait).
func (p *Proc) breakExclusive(page, holderNode, holderProc int) {
	c := p.c
	if p.ring != nil {
		begin := p.clk.Now()
		defer func() {
			p.emitSpan(trace.EvExclBreak, page, begin, int64(holderNode), int64(holderProc))
		}()
	}
	p.st.Inc(stats.ExplicitRequests)
	req := c.model.ExplicitRequest
	if c.cfg.UseInterrupts {
		if c.physOfProto(holderNode) == p.n.phys {
			req += c.model.IntraNodeInterrupt
		} else {
			req += c.model.InterNodeInterrupt
		}
	}
	p.chargeProtocol(req)

	x := c.nodes[holderNode]
	x.mu.Lock()
	defer x.mu.Unlock()

	word := c.dir.Load(holderNode, page, holderNode)
	if _, still := c.lay.Excl(word); !still {
		return // someone else already broke it
	}

	s := &x.pages[page]
	frame := s.local()
	if frame == nil {
		c.storeDirWord(p, holderNode, page, c.lay.ClearExcl(word))
		return
	}

	if !s.aliased.Load() {
		// Flush the entire page to the home node (the charge is the
		// whole page's; only the words that differ need storing).
		mu := &c.pageMu[page]
		mu.Lock()
		diff.Refresh(c.masters[page], frame)
		mu.Unlock()
		pageBytes := int64(c.cfg.PageWords) * wordBytes
		p.st.Inc(stats.PageFlushes)
		p.st.Data(pageBytes)
		arrival := c.net.Transfer(x.phys, pageBytes, p.clk.Now())
		p.chargeWait(arrival)
	}
	s.flushTS = x.lclock.Tick()
	s.updateTS = x.lclock.Now()

	// The responding processor downgrades its mapping to catch future
	// writes.
	holderLocal := c.localOfProc(holderProc)
	if x.vm.Proc(holderLocal).Get(page) == directory.ReadWrite {
		x.vm.Proc(holderLocal).Set(page, directory.ReadOnly)
		p.chargeProtocol(c.model.MProtect)
	}

	// The page must now be tracked like any shared page. The twin is
	// made from the master copy just flushed — the node's latest view
	// of the home's master (Section 2.5) — so any write the holder
	// performed between the flush snapshot and its downgrade (it runs
	// until its next poll) still differs from the twin and will be
	// flushed. No twin is needed when the holder node is the home (its
	// writes land in the master directly) or under write doubling
	// (in-flight writes are propagated eagerly).
	p.twinPage(x, page, c.masters[page])
	// The holder and any remaining local writers get no-longer-exclusive
	// notices to find at their next releases — even on the home node,
	// where the release skips the data flush but must still send write
	// notices to remote sharers.
	x.procs[holderLocal].nle.Add(page)
	x.wbuf = x.vm.Writers(page, x.wbuf[:0])
	for _, w := range x.wbuf {
		x.procs[w].nle.Add(page)
	}

	p.st.Inc(stats.ExclTransitions)
	_, hproc := c.homeOf(page)
	_, _, done := decodeHome(c.homes[c.superOf(page)].Load())
	w := c.lay.Make(x.vm.Loosest(page), -1, hproc, done)
	c.storeDirWord(p, holderNode, page, w)
}

// localOfProc maps a global processor id to its index within its
// protocol node.
func (c *Cluster) localOfProc(g int) int {
	if c.cfg.Protocol.TwoLevelFamily() {
		return g % c.cfg.ProcsPerNode
	}
	return 0
}
