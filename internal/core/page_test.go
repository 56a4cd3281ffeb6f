package core

import (
	"go/build"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"cashmere/internal/directory"
	"cashmere/internal/stats"
)

// TestDropRevokesEveryTable pins the page record's drop, the transition
// both a home migration and a former home's refetch go through: every
// local table loses the page, so no processor can reach the emptied
// slot, and only the migration's drop forgets the timestamps.
func TestDropRevokesEveryTable(t *testing.T) {
	for _, resetTS := range []bool{false, true} {
		c, err := New(testConfig(TwoLevel, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		h := c.Harness()
		h.Read(0, 0) // node 0 is page 0's home: both processors map the master
		h.Read(1, 0)
		n := c.nodes[0]
		s := &n.pages[0]
		if !s.aliased {
			t.Fatal("home node does not alias the master")
		}
		s.wnTS = 7

		s.drop(n, 0, resetTS)

		st := h.PageState(0, 0)
		if st.HasFrame || st.Aliased {
			t.Errorf("resetTS=%v: slot still holds a frame (aliased %v)", resetTS, st.Aliased)
		}
		for l, perm := range st.Perms {
			if perm != directory.Invalid {
				t.Errorf("resetTS=%v: local proc %d still maps the page %s", resetTS, l, perm)
			}
		}
		if want := map[bool]int64{false: 7, true: 0}[resetTS]; st.WnTS != want {
			t.Errorf("resetTS=%v: wnTS %d, want %d", resetTS, st.WnTS, want)
		}
		if h.Read(1, 0); !h.PageState(0, 0).HasFrame {
			t.Errorf("resetTS=%v: a read after the drop left the slot empty", resetTS)
		}
	}
}

func words(vals ...int64) []int64 { return vals }

// TestMergeIncomingWriteWriteOverlap pins the incoming diff's word
// rule: a word the master changed goes to the twin, and to the working
// frame unless the local node has modified it (working differs from
// the twin). When a remote write (already at the home) and an
// unreleased local write collide on a word, the local write survives,
// since release order makes it the last writer, and the twin adopts
// the remote value so the next flush recognises the word as local. The
// incoming-clobber defect overwrites that local write instead.
func TestMergeIncomingWriteWriteOverlap(t *testing.T) {
	cases := []struct {
		name                             string
		working, twin, master            []int64
		wantWorking, wantTwin, clobbered []int64 // clobbered: working under the defect
		wantN                            int
	}{
		{"no changes", words(1, 2), words(1, 2), words(1, 2), words(1, 2), words(1, 2), words(1, 2), 0},
		{"remote only", words(1, 2), words(1, 2), words(1, 9), words(1, 9), words(1, 9), words(1, 9), 1},
		{"local only", words(5, 2), words(1, 2), words(1, 2), words(5, 2), words(1, 2), words(5, 2), 0},
		{"overlap keeps local write", words(5, 2), words(1, 2), words(9, 2), words(5, 2), words(9, 2), words(9, 2), 1},
		{"overlap where both wrote the same value", words(9, 2), words(1, 2), words(9, 2), words(9, 2), words(9, 2), words(9, 2), 1},
		{"mixed words", words(5, 2, 3, 40), words(1, 2, 3, 4), words(9, 2, 33, 4),
			words(5, 2, 33, 40), words(9, 2, 33, 4), words(9, 2, 33, 40), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, clobber := range []bool{false, true} {
				w, tw := slices.Clone(tc.working), slices.Clone(tc.twin)
				want := tc.wantWorking
				if clobber {
					want = tc.clobbered
				}
				if n := mergeIncoming(w, tw, tc.master, clobber); n != tc.wantN {
					t.Errorf("clobber=%v: merged %d words, want %d", clobber, n, tc.wantN)
				}
				if !slices.Equal(w, want) || !slices.Equal(tw, tc.wantTwin) {
					t.Errorf("clobber=%v: working %v, twin %v, want %v, %v", clobber, w, tw, want, tc.wantTwin)
				}
			}
		})
	}
}

// TestMergeIncomingOverlapLastWriterWins follows the overlap rule to
// the home: after the incoming diff, the node's release flushes its
// local write over the remote one (the release-order last writer).
func TestMergeIncomingOverlapLastWriterWins(t *testing.T) {
	home := words(9) // remote write, flushed first
	p := words(5)    // local unreleased write
	tw := words(1)   // both diverged from the original 1

	mergeIncoming(p, tw, home, false)
	if p[0] != 5 {
		t.Fatalf("local write lost at incoming diff: %v", p)
	}
	if n, _, _ := flushUpdate(p, tw, home); n != 1 {
		t.Fatalf("release flushed %d words, want 1", n)
	}
	if home[0] != 5 {
		t.Fatalf("home = %v, want the local (release-order last) write 5", home)
	}
}

// TestFlushUpdateUpdatesTwin: a flush-update writes the local
// modifications to the home and the twin, so a second flush by another
// local writer leaves a newer remote value at the home alone.
func TestFlushUpdateUpdatesTwin(t *testing.T) {
	p := words(1, 2, 3, 4)
	tw := slices.Clone(p)
	home := slices.Clone(p)
	p[1] = 22
	if n, _, _ := flushUpdate(p, tw, home); n != 1 || home[1] != 22 || tw[1] != 22 {
		t.Errorf("flush-update applied %d words: home %v, twin %v", n, home, tw)
	}
	home[1] = 555 // newer remote write arrives at home
	if n, _, _ := flushUpdate(p, tw, home); n != 0 || home[1] != 555 {
		t.Errorf("re-flush applied %d words over a newer remote value: home %v", n, home)
	}
}

// TestFlushUpdateSpan pins the span the false-sharing classifier reads:
// the first and last changed offsets, or (-1, -1) when nothing changed.
func TestFlushUpdateSpan(t *testing.T) {
	home := make([]int64, 16)
	p := make([]int64, 16)
	tw := slices.Clone(p)
	p[3], p[9] = 1, 2
	if n, lo, hi := flushUpdate(p, tw, home); n != 2 || lo != 3 || hi != 9 {
		t.Errorf("flushUpdate = (%d,%d,%d), want (2,3,9)", n, lo, hi)
	}
	if n, lo, hi := flushUpdate(p, tw, home); n != 0 || lo != -1 || hi != -1 {
		t.Errorf("clean flushUpdate = (%d,%d,%d), want (0,-1,-1)", n, lo, hi)
	}
	p[15] = 5
	if n, lo, hi := flushUpdate(p, tw, home); n != 1 || lo != 15 || hi != 15 || home[15] != 5 {
		t.Errorf("flushUpdate of the last word = (%d,%d,%d), home %v", n, lo, hi, home)
	}
}

// TestFlushUpdateIdempotent: a flush-update leaves the twin equal to
// the frame, so a second one writes nothing.
func TestFlushUpdateIdempotent(t *testing.T) {
	f := func(vals []int64, muts []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		p := slices.Clone(vals)
		tw := slices.Clone(p)
		home := slices.Clone(p)
		for i, m := range muts {
			p[i%len(p)] += int64(m) + 1
		}
		flushUpdate(p, tw, home)
		if !slices.Equal(tw, p) || !slices.Equal(home, p) {
			return false
		}
		n, _, _ := flushUpdate(p, tw, home)
		return n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIncomingThenFlushRoundTrip: node A writes word 0, node B word 1;
// each releases with a flush-update and fetches with an incoming diff,
// and both end with the merged page.
func TestIncomingThenFlushRoundTrip(t *testing.T) {
	home := words(10, 20)
	pa, pb := words(10, 20), words(10, 20)
	ta, tb := slices.Clone(pa), slices.Clone(pb)

	pa[0] = 11
	pb[1] = 22

	flushUpdate(pa, ta, home)
	mergeIncoming(pb, tb, home, false)
	want := words(11, 22)
	if !slices.Equal(pb, want) {
		t.Errorf("B's page = %v, want %v", pb, want)
	}
	flushUpdate(pb, tb, home)
	mergeIncoming(pa, ta, home, false)
	if !slices.Equal(pa, want) || !slices.Equal(home, want) {
		t.Errorf("A's page %v, home %v, want %v", pa, home, want)
	}
}

// TestMergeProperty: for any base page and any DISJOINT local and
// remote write sets, a remote flush-update, a local incoming diff under
// the local writes, and the local flush-update give the merged page
// everywhere: the data-race-free merge guarantee two-way diffing rests
// on.
func TestMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(64)
		base := make([]int64, n)
		for i := range base {
			base[i] = rng.Int63n(1000)
		}
		home, local, remote := slices.Clone(base), slices.Clone(base), slices.Clone(base)
		ltwin, rtwin := slices.Clone(base), slices.Clone(base)
		want := slices.Clone(base)
		k := rng.Intn(n + 1)
		for idx, w := range rng.Perm(n) {
			v := rng.Int63n(1000) + 2000 // distinct from base values
			if idx < k {
				local[w] = v
			} else {
				remote[w] = v
			}
			want[w] = v
		}
		flushUpdate(remote, rtwin, home)
		mergeIncoming(local, ltwin, home, false)
		flushUpdate(local, ltwin, home)
		return slices.Equal(local, want) && slices.Equal(home, want) && slices.Equal(ltwin, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCopyCounted(t *testing.T) {
	src := words(7, 8, 9)
	dst := words(0, 8, 0)
	if n := copyCounted(dst, src); n != 2 || !slices.Equal(dst, src) {
		t.Errorf("copyCounted = %d, dst %v, want 2, %v", n, dst, src)
	}
}

// TestRowKernelsMatchWordAccesses pins LoadFRow and StoreFRow at an
// address straddling three pages (the last of a superpage homed on
// processor 0's node, then two homed elsewhere) to word-at-a-time LoadF
// and StoreF: the same values, frames, twins, masters, clocks and
// statistics on every processor, under 2L and under 1L's write doubling.
func TestRowKernelsMatchWordAccesses(t *testing.T) {
	for _, kind := range []Kind{TwoLevel, OneLevelWrite} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := testConfig(kind, 2, 2)
			addr := 8*cfg.PageWords - 5
			row := make([]float64, cfg.PageWords+10)
			run := func(rows bool) (*Harness, []float64) {
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				h := c.Harness()
				writer := c.procs[len(c.procs)-1]
				for i := range row {
					writer.StoreF(addr+i, float64(i)+0.5)
				}
				h.Release(writer.global)
				h.Acquire(0)
				p := c.procs[0]
				got := make([]float64, 2*len(row))
				for i := range row {
					row[i] = -float64(i) * 1.25
				}
				if rows {
					p.LoadFRow(got[:len(row)], addr)
					p.StoreFRow(addr, row)
					p.LoadFRow(got[len(row):], addr)
				} else {
					for i := range row {
						got[i] = p.LoadF(addr + i)
					}
					for i, v := range row {
						p.StoreF(addr+i, v)
					}
					for i := range row {
						got[len(row)+i] = p.LoadF(addr + i)
					}
				}
				h.Release(0)
				return h, got
			}
			hw, want := run(false)
			hr, got := run(true)
			if !slices.Equal(got, want) {
				t.Errorf("row kernels read %v, word accesses %v", got, want)
			}
			if kind == OneLevelWrite && hw.proc(0).Stats().Time[stats.WriteDoubling] == 0 {
				t.Fatal("no store was write-doubled: the test does not reach the doubling path")
			}
			for page := addr / cfg.PageWords; page <= (addr+len(row)-1)/cfg.PageWords; page++ {
				if !slices.Equal(hr.Master(page), hw.Master(page)) {
					t.Errorf("page %d master %v, want %v", page, hr.Master(page), hw.Master(page))
				}
				for node := 0; node < hw.ProtoNodes(); node++ {
					if g, w := hr.PageState(node, page), hw.PageState(node, page); !reflect.DeepEqual(g, w) {
						t.Errorf("node %d page %d: %+v, want %+v", node, page, g, w)
					}
				}
			}
			for i := range hw.c.procs {
				if hr.Clock(i) != hw.Clock(i) || hr.proc(i).Stats() != hw.proc(i).Stats() {
					t.Errorf("proc %d: clock %d stats %+v, want %d %+v",
						i, hr.Clock(i), hr.proc(i).Stats(), hw.Clock(i), hw.proc(i).Stats())
				}
			}
		})
	}
}

// TestNoHostConcurrencyImports keeps the multi-process runtime's
// contract out of the simulator: core runs one simulated processor at a
// time and merges its pages with plain loops, so it imports neither
// internal/diff, whose word atomics are mprun's, nor sync/atomic.
func TestNoHostConcurrencyImports(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "cashmere/internal/diff" || imp == "sync/atomic" {
			t.Errorf("internal/core imports %s", imp)
		}
	}
}
