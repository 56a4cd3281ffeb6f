package core

import (
	"fmt"
	"testing"
)

// TestRangeStoresSurviveConcurrentDowngrades drives the shared-access
// fast path through its hostile cases: every processor issues range
// stores and loads against pages the other processors write in the same
// interval (false sharing), so remote downgrades revoke a processor's
// mappings between its accesses. Under 2LS those
// downgrades are shootdowns, and the single-writer phase pushes a page
// into exclusive mode so the following all-writer phase breaks it
// mid-interval. Two more 2L cases reach the remaining whole-page scans:
// first-touch home relocation adopting a private frame, and
// write-update refreshes, replication and lock releases made while
// siblings have unreleased stores, under an adaptive controller. The
// program is data-race-free at word granularity (disjoint runs,
// barriers between conflicting phases), so every store must survive;
// under `go test -race` it also checks that the executor orders every
// processor's accesses after the protocol actions before them.
func TestRangeStoresSurviveConcurrentDowngrades(t *testing.T) {
	const iters = 20
	type variant struct {
		name       string
		kind       Kind
		firstTouch bool
		adaptive   PolicyController
	}
	var cases []variant
	for _, k := range allKinds {
		cases = append(cases, variant{name: k.String(), kind: k})
	}
	cases = append(cases,
		variant{name: "2L-firsttouch", kind: TwoLevel, firstTouch: true},
		variant{name: "2L-update", kind: TwoLevel, adaptive: updateEveryPage{}})
	for _, v := range cases {
		k := v.kind
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(k, 4, 2) // 8 procs, 16-word pages, 64 pages
			cfg.Adaptive = v.adaptive
			if v.adaptive != nil {
				// One more page, read but never written: replicating
				// it refreshes private frames that have no twin.
				cfg.SharedWords += cfg.PageWords
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pw := cfg.PageWords
			np := cfg.Nodes * cfg.ProcsPerNode
			run := pw / np     // disjoint words per proc within every page
			pages := c.Pages() // the pages every proc writes
			if v.adaptive != nil {
				pages--
			}
			val := func(it, id, page, j int) int64 {
				return int64(((it*64+id)*1024+page)*64 + j)
			}
			// Record only the first mismatch; a proc must keep running
			// to its barriers even after a failure, or Run reports the
			// others blocked.
			var firstErr error
			report := func(format string, args ...any) {
				if firstErr == nil {
					firstErr = fmt.Errorf(format, args...)
				}
			}
			c.Run(func(p *Proc) {
				id := p.ID()
				buf := make([]int64, run)
				if v.firstTouch {
					// Every node takes a private copy of every page,
					// then the first post-init writer of each superpage
					// becomes its home and adopts that copy.
					for page := 0; page < pages; page++ {
						p.StoreRange(page*pw+id*run, buf)
					}
					p.EndInit()
				}
				if v.adaptive != nil {
					// The first decision epoch replicates a page no node
					// holds yet, handing each node a fresh copy.
					p.Barrier()
				}
				for it := 0; it < iters; it++ {
					// Phase 1: all procs write their own run of every
					// page — maximal false sharing, shootdowns under
					// 2LS.
					for page := 0; page < pages; page++ {
						for j := range buf {
							buf[j] = val(it, id, page, j)
						}
						p.StoreRange(page*pw+id*run, buf)
					}
					if v.adaptive != nil {
						// A lock round trip while siblings still store:
						// the release's flush-updates and the acquire's
						// write-update refreshes scan pages mid-store.
						p.Lock(id % cfg.Locks)
						p.Unlock(id % cfg.Locks)
					}
					p.Barrier()
					// Phase 2: read a neighbour's run back with the
					// range loader; the barrier made it visible.
					other := (id + 1) % np
					for page := 0; page < pages; page++ {
						p.LoadRange(buf, page*pw+other*run)
						for j, got := range buf {
							if want := val(it, other, page, j); got != want {
								report("%v it %d: page %d word %d of proc %d = %d, want %d",
									v.name, it, page, j, other, got, want)
							}
						}
					}
					if v.adaptive != nil {
						p.LoadRange(buf, pages*pw+other*run)
						for j, got := range buf {
							if got != 0 {
								report("%v it %d: read-only page word %d of proc %d = %d, want 0",
									v.name, it, j, other, got)
							}
						}
					}
					p.Barrier()
					// Phase 3: proc 0 writes page 0 alone so repeated
					// single-writer intervals can promote it to
					// exclusive mode...
					if id == 0 {
						for j := range buf {
							buf[j] = val(it, 0, pages, j)
						}
						p.StoreRange(0, buf)
					}
					p.Barrier()
					// ...and then every proc writes it, breaking
					// exclusivity.
					for j := range buf {
						buf[j] = val(it, id, pages+1, j)
					}
					p.StoreRange(id*run, buf)
					p.Barrier()
				}
			})
			if firstErr != nil {
				t.Fatal(firstErr)
			}
			// Final state: the phase-4 runs of the last iteration on
			// page 0, the phase-1 runs everywhere else.
			for page := 0; page < pages; page++ {
				for id := 0; id < np; id++ {
					for j := 0; j < run; j++ {
						want := val(iters-1, id, page, j)
						if page == 0 {
							want = val(iters-1, id, pages+1, j)
						}
						if got := c.ReadShared(page*pw + id*run + j); got != want {
							t.Fatalf("%v: final page %d proc %d word %d = %d, want %d",
								v.name, page, id, j, got, want)
						}
					}
				}
			}
		})
	}
}

// updateEveryPage puts every page in write-update mode at the first
// decision epoch, so acquires refresh frames in place, and replicates
// one page per epoch.
type updateEveryPage struct{}

func (updateEveryPage) NoteReadFault(page, proc int)  {}
func (updateEveryPage) NoteWriteFault(page, proc int) {}
func (updateEveryPage) NoteFlush(page, proc int)      {}

func (updateEveryPage) DecideEpoch(epoch int, a *PolicyActions) {
	if epoch == 1 {
		for page := 0; page < a.Pages(); page++ {
			a.SetMode(page, ModeUpdate)
		}
	}
	a.Replicate(epoch % a.Pages())
}
