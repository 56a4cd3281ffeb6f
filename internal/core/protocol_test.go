package core

import (
	"testing"

	"cashmere/internal/costs"
	"cashmere/internal/directory"
	"cashmere/internal/stats"
)

// Tests of finer-grained protocol behaviours and edge cases, separate
// from the end-to-end coherence tests in core_test.go.

func TestWarmupEpochIsUncharged(t *testing.T) {
	c, err := New(testConfig(TwoLevel, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(func(p *Proc) {
		p.BeginInit()
		if p.ID() == 0 {
			for i := 0; i < 16*8; i++ {
				p.Store(i, int64(i))
			}
		}
		p.EndInit()
		p.Warmup(func() {
			// Touch remote pages: faults and fetches happen for real
			// but charge nothing.
			for i := 0; i < 16*8; i += 16 {
				p.Load(i)
			}
		})
	})
	// Real protocol events occurred...
	if res.Counts[stats.ReadFaults] == 0 && res.Counts[stats.WriteFaults] == 0 {
		t.Error("no faults recorded during init/warmup")
	}
	// ...but only barrier costs reached the clocks.
	if res.Time[stats.Protocol] > 5e6 {
		t.Errorf("excessive protocol time charged around uncharged epochs: %d", res.Time[stats.Protocol])
	}
	if res.Time[stats.CommWait] > int64(20)*costs.Default().Barrier32Proc2L {
		t.Errorf("excessive comm/wait charged during uncharged epochs: %d", res.Time[stats.CommWait])
	}
}

func TestChargingOutsideInitEpochs(t *testing.T) {
	// Programs that never use the init markers charge from the start.
	c, err := New(testConfig(TwoLevel, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Store(0, 1)
		}
		p.Barrier()
		p.Load(0)
	})
	if res.Time[stats.Protocol] == 0 {
		t.Error("no protocol time charged outside init epochs")
	}
}

func TestSuperpageSharesHome(t *testing.T) {
	// All pages of a superpage must relocate together on first touch
	// (the paper's Memory Channel mapping-table constraint).
	cfg := testConfig(TwoLevel, 2, 1)
	cfg.SuperpagePages = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(func(p *Proc) {
		p.BeginInit()
		if p.ID() == 0 {
			for i := 0; i < 16*8; i++ {
				p.Store(i, 1)
			}
		}
		p.EndInit()
		if p.ID() == 1 { // node 1 touches ONE page of superpage 0
			p.Load(0)
		}
		p.Barrier()
	})
	// The whole superpage's home moved with the single touch.
	home0, _ := c.homeOf(0)
	for page := 1; page < 4; page++ {
		if h, _ := c.homeOf(page); h != home0 {
			t.Errorf("page %d home %d differs from superpage leader %d", page, h, home0)
		}
	}
	if home0 != 1 {
		t.Errorf("superpage 0 homed on node %d, want first toucher's node 1", home0)
	}
}

func TestTwoLevelSharingSetIsSticky(t *testing.T) {
	// Under 2L, a node invalidated at an acquire stays in the sharing
	// set (Section 2.6 gives self-removal only to the one-level
	// protocols) — the mechanism behind Table 3's near-zero exclusive
	// transitions for barrier applications.
	c, err := New(testConfig(TwoLevel, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(func(p *Proc) {
		p.BeginInit()
		p.EndInit()
		for round := 0; round < 6; round++ {
			if p.ID() == 0 {
				p.Store(0, int64(round))
			}
			p.Barrier()
			if p.ID() == 1 {
				if got := p.Load(0); got != int64(round) {
					t.Errorf("round %d: read %d", round, got)
				}
			}
			p.Barrier()
		}
	})
	// At most the initial enter/leave pair; no per-round cycling.
	if res.Counts[stats.ExclTransitions] > 3 {
		t.Errorf("exclusive transitions = %d; sharing set not sticky",
			res.Counts[stats.ExclTransitions])
	}
}

func TestOneLevelSharingSetSelfRemoval(t *testing.T) {
	// One-level protocols remove themselves at acquires, so the same
	// pattern does cycle through exclusive mode.
	c, err := New(testConfig(OneLevelDiff, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Page 16 (superpage 2) homes on protocol node 2; the writer and
	// reader are both remote. Once the reader stops touching the page,
	// its acquire-time self-removal leaves the writer as sole sharer
	// and the writer's next release moves the page into exclusive mode.
	const addr = 16 * 16
	res := c.Run(func(p *Proc) {
		for round := 0; round < 8; round++ {
			if p.ID() == 0 {
				p.Store(addr, int64(round))
			}
			p.Barrier()
			if p.ID() == 1 && round < 2 {
				if got := p.Load(addr); got != int64(round) {
					t.Errorf("round %d: read %d", round, got)
				}
			}
			p.Barrier()
		}
	})
	if res.Counts[stats.ExclTransitions] < 1 {
		t.Errorf("exclusive transitions = %d; expected cycling under 1LD",
			res.Counts[stats.ExclTransitions])
	}
}

func TestReadSharedExclusivePage(t *testing.T) {
	// ReadShared must return an exclusive holder's (possibly
	// unflushed) frame contents.
	c, err := New(testConfig(TwoLevel, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(func(p *Proc) {
		if p.ID() == 1 {
			// Page 32 is homed on node 0 (superpage round-robin), so
			// node 1 holds it exclusive with a private frame whose
			// master copy is stale.
			p.Store(32*16, 777)
		}
	})
	if got := c.ReadShared(32 * 16); got != 777 {
		t.Errorf("ReadShared of exclusive page = %d, want 777", got)
	}
}

func TestReadSharedExclusiveNonZeroNode(t *testing.T) {
	// A page left in exclusive mode by a processor on a non-zero node
	// must be found through the holder's own directory replica: the
	// directory region has no loop-back, so only the owner's doubled
	// copy of its word is authoritative, and a scan pinned to replica 0
	// trusts broadcast delivery it has no right to assume.
	t.Run("2L", func(t *testing.T) {
		c, err := New(testConfig(TwoLevel, 4, 2))
		if err != nil {
			t.Fatal(err)
		}
		c.Run(func(p *Proc) {
			if p.ID() == 7 {
				// Page 40 is homed on node 0; the sole writer lives on
				// node 3, which takes the page exclusive with a private
				// frame and a stale master copy.
				p.Store(40*16, 4242)
			}
		})
		if got := c.ReadShared(40 * 16); got != 4242 {
			t.Errorf("ReadShared of node-3 exclusive page = %d, want 4242", got)
		}
	})
	t.Run("1LD", func(t *testing.T) {
		// One-level protocols map protocol nodes to processors, so the
		// holder's word lives on a physical node derived from the
		// proc-to-SMP mapping rather than the protocol node index.
		c, err := New(testConfig(OneLevelDiff, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		c.Run(func(p *Proc) {
			if p.ID() == 3 {
				p.Lock(0)
				p.Store(40*16, 555)
				p.Unlock(0) // release with no sharers: enters exclusive
				p.Store(40*16, 556)
			}
		})
		if got := c.ReadShared(40 * 16); got != 556 {
			t.Errorf("ReadShared of proc-3 exclusive page = %d, want 556", got)
		}
	})
}

func TestWriteNoticesExcludeHomeAndAliased(t *testing.T) {
	// A release sends notices to sharing nodes but never to nodes
	// reading the master copy directly.
	c, err := New(testConfig(TwoLevel, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(func(p *Proc) {
		// Page 0 homes on node 0. Everyone maps it; node 1 writes.
		p.Load(0)
		p.Barrier()
		if p.ID() == 1 {
			p.Store(0, 5)
		}
		p.Barrier()
		if got := p.Load(0); got != 5 {
			t.Errorf("proc %d reads %d", p.ID(), got)
		}
		p.Barrier()
	})
	// Notices go to nodes 2 and 3 only (node 0 is home/aliased, node 1
	// is the writer): per flush of page 0, exactly 2 notices.
	if n := res.Counts[stats.WriteNotices]; n < 2 || n > 8 {
		t.Errorf("WriteNotices = %d, want a small count excluding home", n)
	}
}

func TestBreakdownComponentsPartitionExecTime(t *testing.T) {
	// Per processor, the five breakdown components must sum to the
	// finishing time (the Figure 6 invariant).
	c, err := New(testConfig(TwoLevel, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		sum, fin int64
	}
	out := make(chan snap, 4)
	c.Run(func(p *Proc) {
		p.Store(p.ID()*16, 1)
		p.Compute(1000, 100)
		p.Poll()
		p.Barrier()
		p.Load(((p.ID() + 1) % 4) * 16)
		st := p.Stats()
		var sum int64
		for _, v := range st.Time {
			sum += v
		}
		out <- snap{sum, p.Now()}
	})
	for i := 0; i < 4; i++ {
		s := <-out
		if s.sum != s.fin {
			t.Errorf("components sum to %d but clock reads %d", s.sum, s.fin)
		}
	}
}

func TestDirectoryWordsReflectProtocolState(t *testing.T) {
	c, err := New(testConfig(TwoLevel, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Store(0, 9) // no other sharer: exclusive on node 0
		}
		p.Barrier()
		if p.ID() == 0 {
			w := c.dir.Load(0, 0, 0)
			if _, ok := c.lay.Excl(w); !ok {
				t.Error("directory word missing exclusive holder")
			}
			if c.lay.Perm(w) != directory.ReadWrite {
				t.Errorf("directory perm = %v, want rw", c.lay.Perm(w))
			}
		}
		p.Barrier()
		if p.ID() == 2 {
			p.Load(0) // breaks exclusivity
		}
		p.Barrier()
		if p.ID() == 0 {
			if _, _, ok := c.dir.ExclHolder(0, 0); ok {
				t.Error("exclusive holder survives a remote read")
			}
		}
	})
}
