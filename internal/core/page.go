package core

import (
	"slices"

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
// and stamps the update: a new frame is cloned from the master when the
// node holds none, a twinned frame takes an incoming diff (its
// unreleased local writes survive, Section 2.5), and any other frame is
// overwritten. It returns the number of words merged or copied.
func (s *pageState) refresh(c *Cluster, n *node, page int) int {
	master := c.masters[page]
	changed := len(master)
	switch {
	case s.frame == nil:
		s.frame = slices.Clone(master)
	case s.twin != nil:
		changed = mergeIncoming(s.frame, s.twin, master, c.defects.incomingClobber)
	default:
		changed = copyCounted(s.frame, master)
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
			copy(master, s.frame)
		} else if s.twin != nil {
			flushUpdate(s.frame, s.twin, master)
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
	if k := len(n.twinPool); k > 0 {
		s.twin = n.twinPool[k-1]
		n.twinPool[k-1] = nil
		n.twinPool = n.twinPool[:k-1]
		copy(s.twin, src)
	} else {
		s.twin = slices.Clone(src)
	}
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

// The merges below are plain loops: only the running processor touches
// a frame, its twin or a master copy, and no protocol action interleaves
// with another (Proc doc), so none needs an atomic.

// mergeIncoming is two-way diffing's incoming diff (Section 2.5): it
// compares master against twin and writes the differences, the remote
// modifications, to both working and the twin. A word the local node
// has modified (working differs from the twin) keeps its local value:
// when a remote write and an unreleased local write collide on a word,
// the remote value reached the home first, so release order makes the
// local write, flushed at this node's next release against the twin now
// holding the remote value, the last writer. clobber is the
// incoming-clobber defect, which overwrites that local write instead.
// It returns the number of words applied to the twin.
func mergeIncoming(working, twin, master []int64, clobber bool) int {
	working, twin = working[:len(master)], twin[:len(master)]
	n := 0
	for i, v := range master {
		if t := twin[i]; v != t {
			if clobber || working[i] == t {
				working[i] = v
			}
			twin[i] = v
			n++
		}
	}
	return n
}

// flushUpdate is a release's flush-update (Section 2.5): it writes the
// frame's words that differ from the twin, the local modifications, to
// both master and the twin, so a later release by another local writer
// flushes only newer ones and never overwrites a newer remote write at
// the home. It returns their number and their inclusive span [lo, hi]
// (-1, -1 when nothing changed), which the hot-page profiler's
// false-sharing classifier reads.
func flushUpdate(frame, twin, master []int64) (n, lo, hi int) {
	frame, master = frame[:len(twin)], master[:len(twin)]
	lo, hi = -1, -1
	for i, t := range twin {
		if v := frame[i]; v != t {
			master[i] = v
			twin[i] = v
			if n == 0 {
				lo = i
			}
			hi = i
			n++
		}
	}
	return n, lo, hi
}

// copyCounted makes dst equal to src and returns the number of words
// that differed: the payload of a refresh of a frame with no twin (no
// unreleased local writes to keep, so a copy is the whole merge).
func copyCounted(dst, src []int64) int {
	dst = dst[:len(src)]
	n := 0
	for i, v := range src {
		if dst[i] != v {
			n++
		}
	}
	copy(dst, src)
	return n
}
