package core

import (
	"testing"
	"time"

	"cashmere/internal/directory"
	"cashmere/internal/stats"
)

// testConfig returns a small cluster configuration for protocol kind k.
func testConfig(k Kind, nodes, ppn int) Config {
	return Config{
		Nodes:        nodes,
		ProcsPerNode: ppn,
		Protocol:     k,
		PageWords:    16,
		SharedWords:  16 * 64, // 64 pages
		Locks:        4,
		Flags:        8,
	}
}

var allKinds = []Kind{TwoLevel, TwoLevelSD, OneLevelDiff, OneLevelWrite}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, ProcsPerNode: 1, SharedWords: 10}); err == nil {
		t.Error("zero nodes accepted")
	}
	// Clusters beyond the paper's 8 nodes are legal now that the
	// directory layout is derived from the topology.
	if _, err := New(Config{Nodes: 9, ProcsPerNode: 1, SharedWords: 10}); err != nil {
		t.Errorf("nine nodes rejected: %v", err)
	}
	if _, err := New(Config{Nodes: 32, ProcsPerNode: 4, SharedWords: 10}); err != nil {
		t.Errorf("128-proc cluster rejected: %v", err)
	}
	if _, err := New(Config{Nodes: 2, ProcsPerNode: 2, SharedWords: 0}); err == nil {
		t.Error("zero shared words accepted")
	}
	if _, err := New(Config{Nodes: 2, ProcsPerNode: 2, SharedWords: 10, SuperpagePages: -1}); err == nil {
		t.Error("negative superpage grouping accepted")
	}
	c, err := New(Config{Nodes: 2, ProcsPerNode: 2, SharedWords: 100})
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().PageWords != 1024 {
		t.Errorf("default PageWords = %d", c.Config().PageWords)
	}
	if c.Pages() != 1 {
		t.Errorf("Pages = %d, want 1", c.Pages())
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{TwoLevel: "2L", TwoLevelSD: "2LS", OneLevelDiff: "1LD", OneLevelWrite: "1L"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind = %q", Kind(99).String())
	}
}

func TestExclusiveModeEntryAndBreak(t *testing.T) {
	// Proc 0 writes a private page repeatedly: under 2L it should enter
	// exclusive mode (one transition) and take no further faults. Then
	// a processor on another node reads the page, breaking exclusivity.
	c, err := New(testConfig(TwoLevel, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(func(p *Proc) {
		if p.ID() == 0 {
			for i := 0; i < 8; i++ {
				p.Store(i, int64(i+1)) // all on page 0
			}
		}
		p.Barrier()
		if p.ID() == 2 { // node 1
			for i := 0; i < 8; i++ {
				if got := p.Load(i); got != int64(i+1) {
					t.Errorf("post-break read %d = %d, want %d", i, got, i+1)
				}
			}
		}
		p.Barrier()
	})
	if res.Counts[stats.ExclTransitions] < 2 {
		t.Errorf("ExclTransitions = %d, want >= 2 (enter and leave)",
			res.Counts[stats.ExclTransitions])
	}
	if res.Counts[stats.ExplicitRequests] < 1 {
		t.Errorf("ExplicitRequests = %d, want >= 1", res.Counts[stats.ExplicitRequests])
	}
}

func TestExclusivePagesHaveNoCoherenceOverhead(t *testing.T) {
	// After entering exclusive mode, further writes to the page incur
	// no faults, twins, flushes, or notices.
	c, err := New(testConfig(TwoLevel, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		p.Store(0, 1) // write fault; no other sharer -> exclusive
		for i := 0; i < 1000; i++ {
			p.Store(i%16, int64(i))
		}
	})
	if res.Counts[stats.WriteFaults] != 1 {
		t.Errorf("WriteFaults = %d, want 1", res.Counts[stats.WriteFaults])
	}
	if res.Counts[stats.TwinCreations] != 0 {
		t.Errorf("TwinCreations = %d, want 0 for exclusive page", res.Counts[stats.TwinCreations])
	}
	if res.Counts[stats.PageFlushes] != 0 {
		t.Errorf("PageFlushes = %d, want 0", res.Counts[stats.PageFlushes])
	}
}

// interleavedFalseSharing runs a flag-ordered false-sharing scenario on
// page 0 (words 0, 2, 3 written by different processors of different
// nodes, with a local writer twinning the page before a stale co-located
// reader refetches it) and verifies every processor's final view.
func interleavedFalseSharing(t *testing.T, k Kind) stats.Total {
	t.Helper()
	c, err := New(testConfig(k, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(func(p *Proc) {
		switch p.ID() {
		case 1: // node 0, proc B: map the page, later refetch it
			if got := p.Load(1); got != 0 {
				t.Errorf("B initial read = %d, want 0", got)
			}
			p.SetFlag(0)
			p.WaitFlag(3)
			if got := p.Load(2); got != 222 {
				t.Errorf("B sees word 2 = %d, want 222", got)
			}
			if got := p.Load(3); got != 333 {
				t.Errorf("B sees word 3 = %d, want 333", got)
			}
			if got := p.Load(0); got != 100 {
				t.Errorf("B sees word 0 = %d, want 100", got)
			}
		case 2: // node 1: two remote writes to the shared page
			p.WaitFlag(0)
			p.Lock(0)
			p.Store(2, 222)
			p.Unlock(0)
			p.SetFlag(1)
			p.WaitFlag(2)
			p.Lock(0)
			p.Store(3, 333)
			p.Unlock(0)
			p.SetFlag(3)
		case 0: // node 0, proc A: concurrent local writer (twins page 0)
			p.WaitFlag(1)
			p.Lock(1)
			p.Store(0, 100)
			p.SetFlag(2)
			p.Unlock(1)
		}
		p.Barrier()
		for w, want := range map[int]int64{0: 100, 2: 222, 3: 333} {
			if got := p.Load(w); got != want {
				t.Errorf("%v: proc %d final word %d = %d, want %d", k, p.ID(), w, got, want)
			}
		}
	})
	return res.Total
}

func TestTwoWayDiffingOnFalseSharing(t *testing.T) {
	// Under 2L, refetching a page that a co-located processor has
	// twinned must use an incoming diff (two-way diffing), never a
	// shootdown (Section 2.5).
	tot := interleavedFalseSharing(t, TwoLevel)
	if tot.Counts[stats.IncomingDiffs] == 0 {
		t.Error("2L performed no incoming diffs in the false-sharing scenario")
	}
	if tot.Counts[stats.Shootdowns] != 0 {
		t.Errorf("2L performed %d shootdowns", tot.Counts[stats.Shootdowns])
	}
	if tot.Counts[stats.TwinCreations] == 0 {
		t.Error("no twins created")
	}
}

func TestFirstTouchHomeMigration(t *testing.T) {
	// After EndInit, the first toucher of a page becomes its home; a
	// page used only by node 1 should migrate there and then be
	// accessed without transfers.
	c, err := New(testConfig(TwoLevel, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(func(p *Proc) {
		if p.ID() == 0 {
			// Initialize everything (first-touch disabled during init).
			for i := 0; i < 16*8; i++ {
				p.Store(i, int64(i))
			}
		}
		p.EndInit()
		if p.ID() == 2 { // node 1 adopts pages post-init
			for i := 0; i < 16*8; i++ {
				p.Store(i, int64(2*i))
			}
		}
		p.Barrier()
		if got := p.Load(5); got != 10 {
			t.Errorf("proc %d sees word 5 = %d, want 10", p.ID(), got)
		}
	})
	if res.Counts[stats.HomeMigrations] == 0 {
		t.Error("no home migrations recorded")
	}
}

func TestShootdownVariantAvoidsIncomingDiffs(t *testing.T) {
	// Cashmere-2LS must produce the same memory results as 2L on the
	// same false-sharing scenario, without ever using incoming diffs.
	tot := interleavedFalseSharing(t, TwoLevelSD)
	if tot.Counts[stats.IncomingDiffs] != 0 {
		t.Errorf("2LS performed %d incoming diffs", tot.Counts[stats.IncomingDiffs])
	}
}

func TestOneLevelVariantsOnFalseSharing(t *testing.T) {
	// The one-level protocols handle the identical access pattern with
	// per-processor protocol nodes; results must match.
	tot := interleavedFalseSharing(t, OneLevelDiff)
	if tot.Counts[stats.TwinCreations] == 0 {
		t.Error("1LD created no twins")
	}
	totW := interleavedFalseSharing(t, OneLevelWrite)
	if totW.Counts[stats.TwinCreations] != 0 {
		t.Errorf("1L created %d twins", totW.Counts[stats.TwinCreations])
	}
}

func TestOneLevelWriteDoubling(t *testing.T) {
	// 1L must charge write-doubling time and move per-word data.
	c, err := New(testConfig(OneLevelWrite, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(func(p *Proc) {
		// Page 50 is in superpage 6, homed round-robin on proto node
		// 6%4 = 2, so proc 1's writes must be doubled through.
		const base = 16 * 50
		if p.ID() == 1 {
			for i := 0; i < 16; i++ {
				p.Store(base+i, int64(i))
			}
		}
		p.Barrier()
		if got := p.Load(base + 7); got != 7 {
			t.Errorf("proc %d sees %d, want 7", p.ID(), got)
		}
	})
	if res.Time[stats.WriteDoubling] == 0 {
		t.Error("no write-doubling time charged")
	}
	if res.Counts[stats.TwinCreations] != 0 {
		t.Errorf("1L created %d twins", res.Counts[stats.TwinCreations])
	}
}

func TestComputeAndPolling(t *testing.T) {
	c, err := New(testConfig(TwoLevel, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(func(p *Proc) {
		p.Compute(1000, 0)
		p.Compute(500, 1<<20) // with bus traffic
		p.Poll()
		p.PollN(10)
		p.PollN(-1) // no-op
	})
	if res.Time[stats.User] < 2*1500 {
		t.Errorf("User time = %d, want >= 3000", res.Time[stats.User])
	}
	if res.Time[stats.Polling] != 2*11*c.model.Poll {
		t.Errorf("Polling time = %d, want %d", res.Time[stats.Polling], 2*11*c.model.Poll)
	}
}

func TestVirtualTimeAdvancesThroughProtocol(t *testing.T) {
	for _, k := range allKinds {
		c, err := New(testConfig(k, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		res := c.Run(func(p *Proc) {
			p.Store(p.ID(), 1)
			p.Barrier()
			p.Load((p.ID() + 1) % 4)
		})
		if res.ExecNS <= 0 {
			t.Errorf("%v: ExecNS = %d", k, res.ExecNS)
		}
		for i, f := range res.Finish {
			if f <= 0 {
				t.Errorf("%v: proc %d finish = %d", k, i, f)
			}
		}
	}
}

func TestStatsPerProtocolShape(t *testing.T) {
	// 2L on a producer/consumer page pattern should transfer fewer
	// pages than 1LD on the identical program, thanks to intra-node
	// coalescing of fetches.
	run := func(k Kind) stats.Total {
		c, err := New(testConfig(k, 4, 4))
		if err != nil {
			t.Fatal(err)
		}
		res := c.Run(func(p *Proc) {
			if p.ID() == 0 {
				for i := 0; i < 16*8; i++ { // 8 pages
					p.Store(i, int64(i))
				}
			}
			p.Barrier()
			sum := int64(0)
			for i := 0; i < 16*8; i++ {
				sum += p.Load(i)
			}
			p.Barrier()
			_ = sum
		})
		return res.Total
	}
	twoL := run(TwoLevel)
	oneL := run(OneLevelDiff)
	if twoL.Counts[stats.PageTransfers] >= oneL.Counts[stats.PageTransfers] {
		t.Errorf("2L transfers (%d) not fewer than 1LD (%d)",
			twoL.Counts[stats.PageTransfers], oneL.Counts[stats.PageTransfers])
	}
	if twoL.DataBytes >= oneL.DataBytes {
		t.Errorf("2L data (%d) not less than 1LD (%d)", twoL.DataBytes, oneL.DataBytes)
	}
}

func TestHomeOptReducesOneLevelOverhead(t *testing.T) {
	// With the home-node optimization, processors co-located with the
	// home skip twin maintenance for those pages.
	run := func(homeOpt bool) stats.Total {
		cfg := testConfig(OneLevelDiff, 2, 4)
		cfg.HomeOpt = homeOpt
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := c.Run(func(p *Proc) {
			// All procs write disjoint words of the same few pages.
			for i := 0; i < 8; i++ {
				p.Store(i*16+p.ID(), int64(p.ID()))
			}
			p.Barrier()
			// A bad read is reported once, and the processor still
			// arrives at the barrier below: returning would strand its
			// peers there until the test timeout.
			for i := 0; i < 8; i++ {
				if got := p.Load(i*16 + (p.ID()+1)%8); got != int64((p.ID()+1)%8) {
					t.Errorf("homeOpt=%v: proc %d bad read %d", homeOpt, p.ID(), got)
					break
				}
			}
			p.Barrier()
		})
		return res.Total
	}
	with := run(true)
	without := run(false)
	if with.Counts[stats.TwinCreations] >= without.Counts[stats.TwinCreations] {
		t.Errorf("home-opt twins (%d) not fewer than base (%d)",
			with.Counts[stats.TwinCreations], without.Counts[stats.TwinCreations])
	}
}

func TestInterruptCostVariant(t *testing.T) {
	cfg := testConfig(TwoLevelSD, 2, 2)
	cfg.UseInterrupts = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(func(p *Proc) {
		p.Store(p.ID(), 1)
		p.Barrier()
		p.Load((p.ID() + 2) % 4)
		p.Barrier()
	})
}

// TestLockBasedMetaCharges runs one notice post and one directory store
// with and without the Section 3.3.5 ablation. Uncontended, a post costs
// GlobalLock where the lock-free run charges DirectoryUpdate, and a
// store DirectoryUpdateLocked; a second poster to a held notice lock
// waits until the holder releases it.
func TestLockBasedMetaCharges(t *testing.T) {
	proc0 := func(lockBased bool) *Proc {
		cfg := testConfig(TwoLevel, 2, 1)
		cfg.LockBasedMeta = lockBased
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c.procs[0]
	}
	elapsed := func(p *Proc, op func()) int64 {
		t0 := p.clk.Now()
		op()
		return p.clk.Now() - t0
	}
	for _, lockBased := range []bool{false, true} {
		p := proc0(lockBased)
		m := p.c.model
		wantPost, wantStore := m.DirectoryUpdate, m.DirectoryUpdate
		if lockBased {
			wantPost, wantStore = m.GlobalLock, m.DirectoryUpdateLocked
		}
		if got := elapsed(p, func() { p.postNotice(1, 3) }); got != wantPost {
			t.Errorf("lockBased=%v: notice post cost %d, want %d", lockBased, got, wantPost)
		}
		if got := elapsed(p, func() { p.c.storeDirWord(p, 0, 3, p.c.lay.WithPerm(0, directory.ReadOnly)) }); got != wantStore {
			t.Errorf("lockBased=%v: directory store cost %d, want %d", lockBased, got, wantStore)
		}
		if got := p.c.nodes[1].gwn.Snapshot(); len(got) != 1 || got[0] != 3 {
			t.Errorf("lockBased=%v: node 1's notices = %v, want [3]", lockBased, got)
		}
	}

	p := proc0(true)
	to := p.c.nodes[1]
	held := to.wnLock.Acquire(p.clk.Now(), 0)
	done := make(chan int64)
	go func() {
		p.postNotice(1, 3)
		done <- p.clk.Now()
	}()
	select {
	case <-done:
		t.Fatal("a post returned while another holder had the notice lock")
	case <-time.After(20 * time.Millisecond):
	}
	to.wnLock.Release(held + 1000)
	if got, want := <-done, held+1000+p.c.model.GlobalLock; got != want {
		t.Errorf("contended post done at %d, want the holder's release plus GlobalLock, %d", got, want)
	}
}
