package core

import (
	"sync/atomic"

	"cashmere/internal/diff"
	"cashmere/internal/directory"
)

// pageState is one protocol node's second-level directory entry for one
// page (paper Section 2.3): the local copy, whether that copy is the
// master itself, the twin, and the three logical timestamps. Every
// transition of the entry is a method here, called with the node's
// mutex held; those that read or write a copy's words take the write
// side of the page's pageMu around the scan.
//
// The entry keeps one invariant: while a local page table grants access
// to the page, the frame is present. Installs publish the frame before
// the caller grants access, and drop revokes every local table before it
// empties the slot. The access fast path (Proc.fill) reads frame and
// aliased without the node mutex, which is why those two are atomic; it
// treats an empty slot as a fault and rechecks the table.
type pageState struct {
	frame   atomic.Pointer[[]int64] // local copy; nil while the node holds none
	aliased atomic.Bool             // frame is the master copy (home node, or home-opt)
	twin    []int64                 // twin of a private frame; nil while none

	flushTS  int64 // completion time of the last home-node flush
	updateTS int64 // completion time of the last local update
	wnTS     int64 // time the most recent write notice was received
}

// local returns the node's copy of the page, or nil when it holds none.
func (s *pageState) local() []int64 {
	if f := s.frame.Load(); f != nil {
		return *f
	}
	return nil
}

// refresh brings the node's copy of page up to the master's contents
// and stamps the update: a new frame is filled and published when the
// node holds none, a twinned frame takes an incoming diff (its
// unreleased local writes survive, Section 2.5), and any other frame is
// overwritten. It returns the number of words merged or copied.
func (s *pageState) refresh(c *Cluster, n *node, page int) int {
	master := c.masters[page]
	mu := &c.pageMu[page]
	changed := len(master)
	mu.Lock()
	switch f := s.frame.Load(); {
	case f == nil:
		nf := make([]int64, len(master))
		diff.CopyIn(nf, master)
		s.frame.Store(&nf)
		n.vm.Bump()
	case s.twin != nil:
		changed = c.incoming(*f, s.twin, master)
	default:
		changed = diff.Refresh(*f, master)
	}
	mu.Unlock()
	s.updateTS = n.lclock.Tick()
	return changed
}

// adoptMaster makes the master copy the node's frame, once the node is
// the page's home (or shares its physical node under home-opt). Data a
// private frame holds that the master lacks is written home first: the
// whole frame when the node held the page exclusively, its twin-tracked
// writes otherwise.
func (s *pageState) adoptMaster(c *Cluster, n *node, page int, excl bool) {
	master := c.masters[page]
	if f := s.frame.Load(); f != nil {
		mu := &c.pageMu[page]
		mu.Lock()
		if excl {
			diff.Refresh(master, *f)
		} else if s.twin != nil {
			diff.FlushUpdate(*f, s.twin, master)
		}
		mu.Unlock()
	}
	s.frame.Store(&master)
	s.aliased.Store(true)
	s.retireTwin(n)
	n.vm.Bump() // invalidate translations to the private frame
	s.updateTS = n.lclock.Tick()
}

// makeTwin twins src, which is the frame or the master copy, into a
// buffer from the node's pool, and reports whether it did. A copy with a
// twin needs no other, and none is made when the frame is the master
// itself (its writes land home directly) or under write doubling (1L
// sends each write home as it happens).
func (s *pageState) makeTwin(c *Cluster, n *node, page int, src []int64) bool {
	if s.twin != nil || s.aliased.Load() || c.cfg.Protocol == OneLevelWrite {
		return false
	}
	var t []int64
	if k := len(n.twinPool); k > 0 {
		t = n.twinPool[k-1]
		n.twinPool[k-1] = nil
		n.twinPool = n.twinPool[:k-1]
	} else {
		t = make([]int64, len(src))
	}
	mu := &c.pageMu[page]
	mu.Lock()
	diff.CopyIn(t, src)
	mu.Unlock()
	s.twin = t
	return true
}

// retireTwin returns the twin, if any, to the node's pool.
func (s *pageState) retireTwin(n *node) {
	if s.twin != nil {
		n.twinPool = append(n.twinPool, s.twin)
		s.twin = nil
	}
}

// drop detaches the node from its copy of page. It revokes every local
// table and bumps the node epoch first, so no table grants access once
// the slot is empty, then empties the slot and retires the twin.
// resetTS also zeroes the timestamps: a home migration forgets the old
// home's history, while a former home refetching as a sharer keeps the
// notice time its next fetch is judged against.
func (s *pageState) drop(n *node, page int, resetTS bool) {
	for l := 0; l < n.vm.Procs(); l++ {
		n.vm.Proc(l).Set(page, directory.Invalid)
	}
	n.vm.Bump()
	s.frame.Store(nil)
	s.aliased.Store(false)
	s.retireTwin(n)
	if resetTS {
		s.flushTS, s.updateTS, s.wnTS = 0, 0, 0
	}
}

// snapshot copies the entry, frame and twin included, for the
// verification harness.
func (s *pageState) snapshot() PageState {
	st := PageState{FlushTS: s.flushTS, UpdateTS: s.updateTS, WnTS: s.wnTS}
	if f := s.local(); f != nil {
		st.HasFrame = true
		st.Aliased = s.aliased.Load()
		st.Frame = append([]int64(nil), f...)
	}
	if s.twin != nil {
		st.HasTwin = true
		st.Twin = append([]int64(nil), s.twin...)
	}
	return st
}
