package core

import (
	"cashmere/internal/diff"
	"cashmere/internal/directory"
)

// pageState is one protocol node's second-level directory entry for one
// page (paper Section 2.3): the local copy, whether that copy is the
// master itself, the twin, and the three logical timestamps. Every
// transition of the entry is a method here.
//
// The entry keeps one invariant: while a local page table grants access
// to the page, the frame is present. Installs set the frame before the
// caller grants access, and drop revokes every local table before it
// empties the slot, so the access path (Proc.readFrame, Proc.writePage)
// always finds a frame behind a granting table.
type pageState struct {
	frame   []int64 // local copy; nil while the node holds none
	aliased bool    // frame is the master copy (home node, or home-opt)
	twin    []int64 // twin of a private frame; nil while none

	flushTS  int64 // completion time of the last home-node flush
	updateTS int64 // completion time of the last local update
	wnTS     int64 // time the most recent write notice was received
}

// refresh brings the node's copy of page up to the master's contents
// and stamps the update: a new frame is filled and published when the
// node holds none, a twinned frame takes an incoming diff (its
// unreleased local writes survive, Section 2.5), and any other frame is
// overwritten. It returns the number of words merged or copied.
func (s *pageState) refresh(c *Cluster, n *node, page int) int {
	master := c.masters[page]
	changed := len(master)
	switch {
	case s.frame == nil:
		s.frame = make([]int64, len(master))
		diff.CopyIn(s.frame, master)
	case s.twin != nil:
		changed = c.incoming(s.frame, s.twin, master)
	default:
		changed = diff.Refresh(s.frame, master)
	}
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
	if s.frame != nil {
		if excl {
			diff.Refresh(master, s.frame)
		} else if s.twin != nil {
			diff.FlushUpdate(s.frame, s.twin, master)
		}
	}
	s.frame = master
	s.aliased = true
	s.retireTwin(n)
	s.updateTS = n.lclock.Tick()
}

// makeTwin twins src, which is the frame or the master copy, into a
// buffer from the node's pool, and reports whether it did. A copy with a
// twin needs no other, and none is made when the frame is the master
// itself (its writes land home directly) or under write doubling (1L
// sends each write home as it happens).
func (s *pageState) makeTwin(c *Cluster, n *node, src []int64) bool {
	if s.twin != nil || s.aliased || c.cfg.Protocol == OneLevelWrite {
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
	diff.CopyIn(t, src)
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
// table first, so no table grants access once the slot is empty, then
// empties the slot and retires the twin.
// resetTS also zeroes the timestamps: a home migration forgets the old
// home's history, while a former home refetching as a sharer keeps the
// notice time its next fetch is judged against.
func (s *pageState) drop(n *node, page int, resetTS bool) {
	for l := 0; l < n.vm.Procs(); l++ {
		n.vm.Proc(l).Set(page, directory.Invalid)
	}
	s.frame = nil
	s.aliased = false
	s.retireTwin(n)
	if resetTS {
		s.flushTS, s.updateTS, s.wnTS = 0, 0, 0
	}
}

// snapshot copies the entry, frame and twin included, for the
// verification harness.
func (s *pageState) snapshot() PageState {
	st := PageState{FlushTS: s.flushTS, UpdateTS: s.updateTS, WnTS: s.wnTS}
	if s.frame != nil {
		st.HasFrame = true
		st.Aliased = s.aliased
		st.Frame = append([]int64(nil), s.frame...)
	}
	if s.twin != nil {
		st.HasTwin = true
		st.Twin = append([]int64(nil), s.twin...)
	}
	return st
}
