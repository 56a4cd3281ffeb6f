package core

import (
	"fmt"
	"sync/atomic"

	"cashmere/internal/diff"
)

// Historical protocol defects, re-introducible one cluster at a time so
// the model checker's own tests can prove each one still produces a
// replayable counterexample (see docs/MODELCHECK.md). Every defect here
// was found by the checker, fixed, and is guarded by a regression test.
//
// A defect is set only through Harness.InjectDefect, by the name a
// counterexample records (modelcheck.Options.Defect), before any
// transition runs; the protocol reads it as a plain field. The zero
// value is the production protocol.
type defects struct {
	// keepExclusiveTwin ("keep-exclusive-twin") suppresses dropping
	// the twin when a one-level protocol moves a page into exclusive
	// mode at a release. The retained twin goes stale across
	// exclusive-era writes and, after a break, misclassifies
	// already-flushed words as unreleased local writes — a later
	// release then pushes stale data over newer remote writes.
	keepExclusiveTwin bool
	// dropStaleMapNotice ("drop-stale-map-notice") suppresses the
	// self-notice queued when a fault maps a page copy that predates an
	// already-drained write notice. Processors unmapped at drain time
	// then never learn of the invalidation and can keep reading the
	// stale copy past their next acquire.
	dropStaleMapNotice bool
	// skipExclusiveRepublish ("skip-exclusive-republish") suppresses
	// republishing the directory word when a write fault joins a page
	// its node already holds exclusively. After a one-level release
	// re-enters exclusive mode with only read-only mappings, the word
	// then understates the node's access.
	skipExclusiveRepublish bool
	// staleExclusiveEntry ("stale-exclusive-entry") lets a one-level
	// release move a page into exclusive mode without the current-copy
	// test: the node need not map the page, its copy may predate a
	// notice it applied, and a notice for it may still be queued. The
	// holder then skips the page's notices at its acquires, reads its
	// stale frame past them, and a later break flushes that whole frame
	// over other nodes' released writes.
	staleExclusiveEntry bool
	// incomingClobber ("incoming-clobber") merges an incoming diff by
	// applying every remote difference to the working page
	// unconditionally, destroying unreleased local writes that collide
	// with a remote write on the same word.
	incomingClobber bool
}

// InjectDefect re-introduces the named historical defect on this
// cluster only. Call it before the first transition. An unknown name is
// an error, so a misspelled counterexample cannot silently check the
// fixed protocol.
func (h *Harness) InjectDefect(name string) error {
	d := &h.c.defects
	switch name {
	case "keep-exclusive-twin":
		d.keepExclusiveTwin = true
	case "drop-stale-map-notice":
		d.dropStaleMapNotice = true
	case "skip-exclusive-republish":
		d.skipExclusiveRepublish = true
	case "stale-exclusive-entry":
		d.staleExclusiveEntry = true
	case "incoming-clobber":
		d.incomingClobber = true
	default:
		return fmt.Errorf("core: unknown defect %q", name)
	}
	return nil
}

// incoming merges the master copy into a twinned working frame: an
// incoming diff (diff.Incoming), or the historical clobbering merge
// under the incoming-clobber defect.
func (c *Cluster) incoming(working, twin, master []int64) int {
	if !c.defects.incomingClobber {
		return diff.Incoming(working, twin, master)
	}
	n := 0
	for i := range twin {
		if v := atomic.LoadInt64(&master[i]); v != atomic.LoadInt64(&twin[i]) {
			atomic.StoreInt64(&working[i], v)
			atomic.StoreInt64(&twin[i], v)
			n++
		}
	}
	return n
}
