package core

import (
	"testing"

	"cashmere/internal/directory"
)

// Minimized regression tests for the protocol bugs the model checker
// (internal/modelcheck) flushed out, driving the harness through the
// exact transition sequences of the minimized counterexamples. Each
// test also injects the matching defect into a second cluster to prove
// it discriminates: reverting the fix makes the assertion fail. See
// docs/MODELCHECK.md.

// defective returns the harness of a fresh cluster with the named
// historical defect injected.
func defective(t *testing.T, cfg Config, defect string) *Harness {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Harness()
	if err := h.InjectDefect(defect); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestExclusiveReleaseDropsTwin is the minimized counterexample for the
// stale-twin bug: a one-level release that moves a page into exclusive
// mode (Section 2.6) must drop the twin. The flush just before the
// transition left the twin equal to the master, so keeping it lets
// exclusive-mode writes diverge from it; after a later break — which
// flushes the frame but keeps an existing twin — the stale twin
// misclassifies already-flushed words as unreleased local writes, and
// the incoming-diff merge then destroys remote updates.
func TestExclusiveReleaseDropsTwin(t *testing.T) {
	c, err := New(testConfig(OneLevelDiff, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	h := c.Harness()
	node := h.ProtoNodeOf(3) // every proc is its own protocol node

	h.Write(3, 0, 7)
	if st := h.PageState(node, 0); !st.HasTwin {
		t.Fatal("write fault did not create a twin")
	}
	h.Release(3)
	st := h.PageState(node, 0)
	if _, ok := h.Layout().Excl(st.OwnWord); !ok {
		t.Fatal("sole-sharer release did not enter exclusive mode")
	}
	if st.HasTwin {
		t.Error("page entered exclusive mode with its twin retained")
	}
	// The exclusive data must still reach a later reader via a break.
	h.BreakExclusive(0, 0)
	h.Acquire(0)
	if got := h.Read(0, 0); got != 7 {
		t.Errorf("reader after break sees %d, want 7", got)
	}

	// The injected defect restores the old behavior, so this test fails
	// if the fix is reverted.
	h2 := defective(t, testConfig(OneLevelDiff, 2, 2), "keep-exclusive-twin")
	h2.Write(3, 0, 7)
	h2.Release(3)
	if st := h2.PageState(node, 0); !st.HasTwin {
		t.Error("defect injection did not retain the twin (injection broken?)")
	}
}

// TestExclusiveRejoinRepublishesWord is the minimized counterexample
// for the silent-rejoin bug: a one-level page re-enters exclusive mode
// at a release after a break downgraded the holder's mapping to
// read-only, so the republished word records ro. A later write fault
// joins the exclusively-held page intra-node ("alreadyExcl") and must
// republish the directory word at rw — leaving it at ro makes the
// global directory disagree with the local page table.
func TestExclusiveRejoinRepublishesWord(t *testing.T) {
	run := func(h *Harness) directory.Word {
		h.Write(3, 0, 7)
		h.Release(3)           // enters exclusive at rw
		h.BreakExclusive(0, 0) // downgrades proc 3's mapping to ro
		h.Release(3)           // re-enters exclusive, word records ro
		h.Write(3, 0, 8)       // joins exclusively, local table back to rw
		return h.PageState(h.ProtoNodeOf(3), 0).OwnWord
	}

	c, err := New(testConfig(OneLevelDiff, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	w := run(c.Harness())
	lay := c.Harness().Layout()
	if _, ok := lay.Excl(w); !ok {
		t.Fatal("page not exclusive after rejoin")
	}
	if got := lay.Perm(w); got != directory.ReadWrite {
		t.Errorf("directory word records %v after an exclusive rw rejoin, want rw", got)
	}

	h2 := defective(t, testConfig(OneLevelDiff, 2, 2), "skip-exclusive-republish")
	if got := lay.Perm(run(h2)); got != directory.ReadOnly {
		t.Errorf("defect injection left word at %v, want the stale ro (injection broken?)", got)
	}
}

// TestStaleMappingQueuesSelfNotice is the minimized counterexample for
// the lost-invalidation bug: a fault that maps a copy predating a write
// notice the node already drained must queue a self-notice, because the
// drain only distributed the invalidation to the processors mapped at
// drain time. Without it the late-mapping processor's next acquire
// invalidates nothing and the stale data survives past the
// synchronization point.
func TestStaleMappingQueuesSelfNotice(t *testing.T) {
	run := func(h *Harness) int64 {
		h.Read(3, 0)      // node 1 maps the page
		h.Write(0, 0, 42) // home write: master holds 42
		h.Release(0)      // flush posts a notice to node 1
		h.Acquire(3)      // drain invalidates p3's mapping only
		h.Read(2, 0)      // p2 maps the node's stale frame
		h.Acquire(2)      // must invalidate via the self-notice
		return h.Read(2, 0)
	}

	c, err := New(testConfig(TwoLevel, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := run(c.Harness()); got != 42 {
		t.Errorf("p2 reads %d after its acquire, want 42", got)
	}

	h2 := defective(t, testConfig(TwoLevel, 2, 2), "drop-stale-map-notice")
	if got := run(h2); got != 0 {
		t.Errorf("defect injection: p2 reads %d, want the stale 0 (injection broken?)", got)
	}
}

// TestStaleCopyStaysOutOfExclusive is the minimized counterexample for
// the stale exclusive entry: a one-level release may move a page into
// exclusive mode only from a current copy. Here two nodes each have
// their mapping invalidated by the other's write notice, so each leaves
// the sharing set; entering on their stale copies, both would become
// exclusive holders, and each would later flush its whole stale frame
// over the other's released writes.
func TestStaleCopyStaysOutOfExclusive(t *testing.T) {
	cfg := testConfig(OneLevelDiff, 4, 1)
	cfg.SuperpagePages = 1 // page 1 homed on node 1
	const page = 1
	run := func(h *Harness) (holders []int) {
		w := func(proc, word int) { h.Write(proc, page*16+word, int64(100*proc+word)) }
		w(2, 3)
		w(0, 1)
		h.Release(0) // notice to node 2
		w(0, 0)
		h.Release(2) // notice to node 0
		h.Acquire(0) // node 0 unmapped, leaves the set
		w(2, 0)
		h.Acquire(2)       // node 2 unmapped, leaves the set
		h.BarrierArrive(2) // flushes node 2's write
		h.BarrierArrive(0) // flushes node 0's write
		for x := 0; x < h.ProtoNodes(); x++ {
			if _, ok := h.Layout().Excl(h.PageState(x, page).OwnWord); ok {
				holders = append(holders, x)
			}
		}
		return holders
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(c.Harness()); len(got) != 0 {
		t.Errorf("unmapped nodes %v entered exclusive mode", got)
	}

	if got := run(defective(t, cfg, "stale-exclusive-entry")); len(got) != 2 {
		t.Errorf("defect injection: exclusive holders %v, want nodes 0 and 2 (injection broken?)", got)
	}
}
