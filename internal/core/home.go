package core

import (
	"cashmere/internal/directory"
	"cashmere/internal/stats"
	"cashmere/internal/trace"
)

// Home-node management (paper Section 2.3, "Home node selection").
//
// Homes are initially assigned round-robin per superpage; after program
// initialization (signalled by EndInit) the first processor to touch a
// page relocates the whole superpage's home to its node, once, under the
// only global lock in the protocol. Ordinary page operations never take
// that lock: they always follow the initial access in time.

// home is a superpage's home assignment: protocol node, home processor
// id, and whether the first-touch relocation is done.
type home struct {
	node, proc int
	done       bool
}

// homeOf returns the protocol node and processor currently serving as
// page's home.
func (c *Cluster) homeOf(page int) (protoNode, proc int) {
	h := c.homes[c.superOf(page)]
	return h.node, h.proc
}

// isHomeLike reports whether p accesses page's master copy directly:
// true on the home node itself, and — under the one-level protocols'
// home-node optimization — on any processor physically co-located with
// the home.
func (p *Proc) isHomeLike(homeProto int) bool {
	if p.n.id == homeProto {
		return true
	}
	if p.c.cfg.HomeOpt && !p.c.cfg.Protocol.TwoLevelFamily() {
		return p.n.phys == p.c.physOfProto(homeProto)
	}
	return false
}

// maybeFirstTouch relocates page's superpage home to p's node if this is
// the first post-initialization touch.
func (p *Proc) maybeFirstTouch(page int) {
	c := p.c
	if !c.initFlag {
		return
	}
	sp := c.superOf(page)
	if c.homes[sp].done {
		return
	}

	// The only lock-acquiring path in the protocol: home relocation.
	held := c.homeLock.Acquire(p.clk.Now(), c.model.GlobalLock)
	p.chargeWait(held)

	oldProto, newProto := c.homes[sp].node, p.n.id
	if oldProto != newProto {
		c.migrateSuperpage(p, sp, oldProto)
	}
	c.homes[sp] = home{newProto, p.global, true}
	p.st.Inc(stats.HomeMigrations)
	p.emit(trace.EvHomeMigrate, page, int64(oldProto), int64(newProto))
	c.homeLock.Release(p.clk.Now())
}

// migrateSuperpage detaches the old home node from every page of
// superpage sp: processors there lose their aliased master mappings and
// will re-fault as ordinary remote sharers. Master data stays in place
// (the Memory Channel region is remapped, not copied).
func (c *Cluster) migrateSuperpage(p *Proc, sp, oldProto int) {
	old := c.nodes[oldProto]
	first := sp * c.cfg.SuperpagePages
	last := first + c.cfg.SuperpagePages
	if last > c.pages {
		last = c.pages
	}
	for page := first; page < last; page++ {
		s := &old.pages[page]
		if !s.aliased {
			continue
		}
		s.drop(old, page, true)
		// The old home's directory word no longer claims a mapping.
		w := c.lay.ClearExcl(c.lay.WithPerm(c.dir.Load(oldProto, page, oldProto), directory.Invalid))
		c.storeDirWord(p, oldProto, page, w)
	}
	p.chargeProtocol(c.model.ExplicitRequest) // remap request to the old home
}

// storeDirWord broadcasts a directory word update on behalf of writer
// node by, charging proc p. Under the lock-based ablation the page's
// global lock brackets the update.
func (c *Cluster) storeDirWord(p *Proc, by, page int, w directory.Word) {
	if c.cfg.LockBasedMeta {
		l := &c.dirLocks[page]
		held := l.Acquire(p.clk.Now(), c.model.DirectoryUpdateLocked)
		p.chargeWait(held)
		c.dir.Store(by, page, w, p.clk.Now())
		l.Release(p.clk.Now())
	} else {
		p.chargeProtocol(c.model.DirectoryUpdate)
		c.dir.Store(by, page, w, p.clk.Now())
	}
	p.st.Inc(stats.DirectoryUpdates)
	p.st.Data(wordBytes)
	p.emit(trace.EvDirUpdate, page, int64(by), 0)
}

// publishOwnWord recomputes and broadcasts p's node's directory word for
// page from the current second-level state. excl supplies the exclusive holder processor (negative for
// none).
func (p *Proc) publishOwnWord(page int, excl int) {
	n := p.n
	h := p.c.homes[p.c.superOf(page)]
	w := p.c.lay.Make(n.vm.Loosest(page), excl, h.proc, h.done)
	p.c.storeDirWord(p, n.id, page, w)
}

// ownWord reads p's node's current directory word for page.
func (p *Proc) ownWord(page int) directory.Word {
	return p.c.dir.Load(p.n.id, page, p.n.id)
}
