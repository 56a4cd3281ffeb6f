package directory

import (
	"strings"
	"testing"
	"testing/quick"

	"cashmere/internal/costs"
	"cashmere/internal/transport/simchan"
)

func TestWordPacking(t *testing.T) {
	l := Packed()
	var w Word
	if l.Perm(w) != Invalid {
		t.Errorf("zero word perm = %v", l.Perm(w))
	}
	if _, ok := l.Excl(w); ok {
		t.Error("zero word has exclusive holder")
	}
	if _, ok := l.Home(w); ok {
		t.Error("zero word has home")
	}
	if l.FirstTouched(w) {
		t.Error("zero word first-touched")
	}

	w = l.WithFirstTouched(l.WithHome(l.WithExcl(l.WithPerm(w, ReadWrite), 31), 17))
	if l.Perm(w) != ReadWrite {
		t.Errorf("perm = %v, want rw", l.Perm(w))
	}
	if p, ok := l.Excl(w); !ok || p != 31 {
		t.Errorf("excl = %d,%v want 31", p, ok)
	}
	if p, ok := l.Home(w); !ok || p != 17 {
		t.Errorf("home = %d,%v want 17", p, ok)
	}
	if !l.FirstTouched(w) {
		t.Error("first-touch bit lost")
	}

	w = l.WithPerm(l.ClearExcl(w), ReadOnly)
	if _, ok := l.Excl(w); ok {
		t.Error("ClearExcl did not clear")
	}
	if l.Perm(w) != ReadOnly {
		t.Errorf("perm after update = %v", l.Perm(w))
	}
	if p, ok := l.Home(w); !ok || p != 17 {
		t.Error("home lost by unrelated updates")
	}
}

func TestPackedLayoutMatchesPaperBits(t *testing.T) {
	// The packed layout is the hardware format of Section 2.3: perm in
	// bits 0-1, excl proc+1 in bits 2-7, home proc+1 in bits 8-13,
	// first-touch in bit 14. Encodings must be numerically identical to
	// that format (and to earlier revisions of this codebase, which used
	// it directly), not merely round-trip.
	l := Packed()
	w := l.Make(ReadWrite, 31, 17, true)
	want := Word(uint64(ReadWrite) | uint64(31+1)<<2 | uint64(17+1)<<8 | 1<<14)
	if w != want {
		t.Errorf("packed encoding = %#x, want %#x", uint64(w), uint64(want))
	}
	if w>>32 != 0 {
		t.Errorf("packed word %#x overflows 32 bits", uint64(w))
	}
	if l.Wide() {
		t.Error("Packed().Wide() = true")
	}
	if l.MaxProc() != 62 {
		t.Errorf("Packed().MaxProc() = %d, want 62", l.MaxProc())
	}
}

// layoutsUnderTest returns the paper's layout and the first wide one
// (the layout of a 64-processor cluster), so every boundary case runs
// against each.
func layoutsUnderTest(t *testing.T) map[string]Layout {
	t.Helper()
	return map[string]Layout{"packed": Packed(), "wide": firstWide(t)}
}

// firstWide returns LayoutFor(63): 7-bit processor fields, the layout
// of the smallest cluster past the paper's word.
func firstWide(t *testing.T) Layout {
	t.Helper()
	wide, err := LayoutFor(63)
	if err != nil {
		t.Fatalf("LayoutFor(63): %v", err)
	}
	if !wide.Wide() {
		t.Fatal("LayoutFor(63) is not wide")
	}
	return wide
}

func TestWordFieldBoundaries(t *testing.T) {
	// Round-trips at the field boundaries: proc 0 (the "none" encoding is
	// proc+1, so 0 must still read back), the packed maximum 62, and every
	// combination of home/excl/touched occupancy — in both layouts.
	for name, l := range layoutsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			for _, proc := range []int{0, 1, 61, 62, l.MaxProc()} {
				if proc > l.MaxProc() {
					continue
				}
				w := l.WithExcl(0, proc)
				if p, ok := l.Excl(w); !ok || p != proc {
					t.Errorf("excl %d roundtrip = %d,%v", proc, p, ok)
				}
				if p, ok := l.Home(w); ok {
					t.Errorf("excl %d leaked into home: %d", proc, p)
				}
				w = l.WithHome(0, proc)
				if p, ok := l.Home(w); !ok || p != proc {
					t.Errorf("home %d roundtrip = %d,%v", proc, p, ok)
				}
				if p, ok := l.Excl(w); ok {
					t.Errorf("home %d leaked into excl: %d", proc, p)
				}
			}
			// All occupancy combinations of (excl, home, touched).
			for _, excl := range []int{-1, 0, l.MaxProc()} {
				for _, home := range []int{-1, 0, l.MaxProc()} {
					for _, ft := range []bool{false, true} {
						w := l.Make(ReadOnly, excl, home, ft)
						if l.Perm(w) != ReadOnly {
							t.Errorf("perm lost at excl=%d home=%d ft=%v", excl, home, ft)
						}
						if p, ok := l.Excl(w); ok != (excl >= 0) || (ok && p != excl) {
							t.Errorf("excl=%d home=%d ft=%v: Excl = %d,%v", excl, home, ft, p, ok)
						}
						if p, ok := l.Home(w); ok != (home >= 0) || (ok && p != home) {
							t.Errorf("excl=%d home=%d ft=%v: Home = %d,%v", excl, home, ft, p, ok)
						}
						if l.FirstTouched(w) != ft {
							t.Errorf("excl=%d home=%d ft=%v: FirstTouched = %v", excl, home, ft, !ft)
						}
					}
				}
			}
		})
	}
}

func TestWordRangePanics(t *testing.T) {
	// Proc 63 overflows the packed 6-bit field (it holds proc+1);
	// every layout rejects MaxProc()+1 and negative ids.
	for name, l := range layoutsUnderTest(t) {
		over := l.MaxProc() + 1
		for _, f := range []func(){
			func() { l.WithExcl(0, over) },
			func() { l.WithExcl(0, -1) },
			func() { l.WithHome(0, over) },
			func() { l.WithHome(0, -1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: out-of-range proc id did not panic", name)
					}
				}()
				f()
			}()
		}
	}
	if Packed().MaxProc()+1 != 63 {
		t.Error("packed overflow boundary moved from 63")
	}
}

func TestLayoutFor(t *testing.T) {
	cases := []struct {
		maxProc  int
		procBits uint
		err      bool
	}{
		{0, 6, false},
		{31, 6, false}, // the paper's 32 processors
		{62, 6, false}, // the last id 6-bit fields hold
		{63, 7, false}, // 16 nodes x 4: the first wide word
		{126, 7, false},
		{127, 8, false},
		{511, 10, false}, // 128 nodes x 4
		{1<<30 - 2, 30, false},
		{1<<30 - 1, 0, true}, // past 30-bit fields
		{1 << 62, 0, true},
		{-1, 0, true},
	}
	for _, c := range cases {
		l, err := LayoutFor(c.maxProc)
		if (err != nil) != c.err {
			t.Errorf("LayoutFor(%d) error = %v, want err=%v", c.maxProc, err, c.err)
			continue
		}
		if err != nil {
			continue
		}
		if l.procBits != c.procBits {
			t.Errorf("LayoutFor(%d) has %d-bit fields, want %d", c.maxProc, l.procBits, c.procBits)
		}
		if l.Wide() != (c.procBits > 6) {
			t.Errorf("LayoutFor(%d).Wide() = %v", c.maxProc, l.Wide())
		}
		// The layout must actually round-trip the largest id.
		if p, ok := l.Excl(l.WithExcl(0, c.maxProc)); !ok || p != c.maxProc {
			t.Errorf("LayoutFor(%d): max id does not roundtrip", c.maxProc)
		}
	}
	if l, _ := LayoutFor(31); l != Packed() {
		t.Error("the paper's 32 processors do not get the paper's word")
	}
}

func TestWordRoundTripProperty(t *testing.T) {
	for name, l := range layoutsUnderTest(t) {
		mod := l.MaxProc() + 1
		f := func(perm uint8, excl, home uint16, ft bool) bool {
			p := Perm(perm % 3)
			e := int(excl) % mod
			h := int(home) % mod
			w := l.Make(p, e, h, ft)
			ge, ok1 := l.Excl(w)
			gh, ok2 := l.Home(w)
			return l.Perm(w) == p && ok1 && ge == e && ok2 && gh == h && l.FirstTouched(w) == ft
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestWordFormat(t *testing.T) {
	l := Packed()
	w := l.Make(ReadWrite, 3, 5, true)
	s := l.Format(w)
	for _, want := range []string{"rw", "excl=3", "home=5", "(ft)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format() = %q missing %q", s, want)
		}
	}
	if Invalid.String() != "inv" || ReadOnly.String() != "ro" {
		t.Error("Perm names wrong")
	}
	if !strings.Contains(Perm(9).String(), "9") {
		t.Error("unknown perm not rendered numerically")
	}
}

func ident(n int) int { return n }

func newTestGlobal(net *simchan.Network, pages, protoNodes int, physOf func(int) int) *Global {
	return NewGlobal(net, Packed(), pages, protoNodes, physOf, false)
}

func TestGlobalStoreLoad(t *testing.T) {
	net := simchan.New(4, costs.Default())
	g := newTestGlobal(net, 10, 4, ident)
	if g.Pages() != 10 || g.ProtoNodes() != 4 {
		t.Errorf("dims = %d,%d", g.Pages(), g.ProtoNodes())
	}
	if g.Layout() != Packed() {
		t.Error("Layout() does not report the constructor's layout")
	}
	w := g.Layout().Make(ReadWrite, -1, 2, false)
	if done, want := g.Store(1, 7, w, 1000), 1000+net.Model().MCWriteLatency; done != want {
		t.Errorf("Store globally performed at %d, want %d", done, want)
	}
	// Every node, the writer included, sees it.
	for reader := 0; reader < 4; reader++ {
		if got := g.Load(reader, 7, 1); got != w {
			t.Errorf("reader %d load = %v, want %v", reader, got, w)
		}
	}
	// Other pages and words untouched.
	if got := g.Load(0, 7, 2); got != 0 {
		t.Errorf("unrelated word = %v", got)
	}
	if got := g.Load(0, 6, 1); got != 0 {
		t.Errorf("unrelated page = %v", got)
	}
}

func TestGlobalSharers(t *testing.T) {
	net := simchan.New(4, costs.Default())
	g := newTestGlobal(net, 4, 4, ident)
	l := g.Layout()
	g.Store(0, 2, l.WithPerm(0, ReadOnly), 0)
	g.Store(3, 2, l.WithPerm(0, ReadWrite), 0)
	if got := g.Sharers(2, -1); got != 2 {
		t.Errorf("Sharers(all) = %d, want 2", got)
	}
	if got := g.Sharers(2, 0); got != 1 {
		t.Errorf("Sharers(except 0) = %d, want 1", got)
	}
	if got := g.Sharers(2, 3); got != 1 {
		t.Errorf("Sharers(except 3) = %d, want 1", got)
	}
	if got := g.Sharers(1, -1); got != 0 {
		t.Errorf("Sharers(untouched page) = %d", got)
	}
}

func TestGlobalExclHolder(t *testing.T) {
	net := simchan.New(4, costs.Default())
	g := newTestGlobal(net, 4, 4, ident)
	if _, _, ok := g.ExclHolder(1); ok {
		t.Error("found exclusive holder on empty directory")
	}
	g.Store(2, 1, g.Layout().Make(ReadWrite, 9, -1, false), 0)
	node, proc, ok := g.ExclHolder(1)
	if !ok || node != 2 || proc != 9 {
		t.Errorf("ExclHolder = %d,%d,%v want 2,9,true", node, proc, ok)
	}
	// The holder's next store drops the mode.
	g.Store(2, 1, g.Layout().Make(ReadWrite, -1, -1, false), 0)
	if _, _, ok := g.ExclHolder(1); ok {
		t.Error("exclusive holder outlived the word that recorded it")
	}
}

func TestGlobalExclHolderOwn(t *testing.T) {
	// The holder is read from the owner's own word, the one copy: an
	// owner's store names the holder at once for every reader, with no
	// delivery step in between, and every reader loads that same word.
	net := simchan.New(4, costs.Default())
	g := newTestGlobal(net, 4, 4, ident)
	if _, _, ok := g.ExclHolder(2); ok {
		t.Error("found exclusive holder on empty directory")
	}
	w := g.Layout().Make(ReadWrite, 13, -1, false)
	g.Store(3, 2, w, 0)
	if node, proc, ok := g.ExclHolder(2); !ok || node != 3 || proc != 13 {
		t.Errorf("ExclHolder = %d,%d,%v want 3,13,true", node, proc, ok)
	}
	for reader := 0; reader < 4; reader++ {
		if got := g.Load(reader, 2, 3); got != w {
			t.Errorf("reader %d loads owner 3's word = %#x, want %#x", reader, uint64(got), uint64(w))
		}
	}
}

func TestGlobalHome(t *testing.T) {
	net := simchan.New(4, costs.Default())
	g := newTestGlobal(net, 4, 4, ident)
	if _, ok := g.Home(3); ok {
		t.Error("found home on empty directory")
	}
	g.Store(1, 3, g.Layout().WithHome(0, 6), 0)
	if p, ok := g.Home(3); !ok || p != 6 {
		t.Errorf("Home = %d,%v want 6,true", p, ok)
	}
}

func TestGlobalOneLevelMapping(t *testing.T) {
	// One-level protocols: 8 protocol nodes (processors) on 2 physical
	// nodes; every processor reads proc 5's word.
	net := simchan.New(2, costs.Default())
	physOf := func(proc int) int { return proc / 4 }
	g := newTestGlobal(net, 2, 8, physOf)
	g.Store(5, 0, g.Layout().WithPerm(0, ReadOnly), 0) // proc 5 lives on phys node 1
	for reader := 0; reader < 8; reader++ {
		if got := g.Load(reader, 0, 5); g.Layout().Perm(got) != ReadOnly {
			t.Errorf("proc %d sees %v", reader, got)
		}
	}
}

func TestGlobalWideLayoutLargeCluster(t *testing.T) {
	// A 128-node cluster of 4-way SMPs (511 = largest proc id) cannot use
	// the packed layout; the wide words must survive the directory's
	// int64 storage and round-trip through Store/Load.
	lay, err := LayoutFor(511)
	if err != nil {
		t.Fatal(err)
	}
	if !lay.Wide() {
		t.Fatal("512-proc cluster got the packed layout")
	}
	net := simchan.New(128, costs.Default())
	g := NewGlobal(net, lay, 4, 128, ident, false)
	w := lay.Make(ReadWrite, 511, 509, true)
	g.Store(127, 3, w, 0)
	got := g.Load(0, 3, 127)
	if got != w {
		t.Errorf("wide word load = %#x, want %#x", uint64(got), uint64(w))
	}
	if p, ok := lay.Excl(got); !ok || p != 511 {
		t.Errorf("wide excl = %d,%v", p, ok)
	}
	node, proc, ok := g.ExclHolder(3)
	if !ok || node != 127 || proc != 511 {
		t.Errorf("ExclHolder = %d,%d,%v", node, proc, ok)
	}
}

func TestLayoutBoundaryPackedToWide(t *testing.T) {
	// The packed layout's 6-bit fields hold proc+1, so id 62 is the last
	// packed cluster and 63 the first wide one. LayoutFor must flip
	// exactly there, and the first wide layout must round-trip the id
	// the packed layout cannot hold.
	atBound, err := LayoutFor(62)
	if err != nil {
		t.Fatalf("LayoutFor(62): %v", err)
	}
	if atBound != Packed() {
		t.Errorf("layout at id 62 is not the packed layout")
	}
	past := firstWide(t)
	if past.MaxProc() < 63 {
		t.Errorf("first wide layout MaxProc = %d, cannot hold 63", past.MaxProc())
	}
	if p, ok := past.Excl(past.WithExcl(0, 63)); !ok || p != 63 {
		t.Errorf("first wide layout: excl 63 roundtrip = %d,%v", p, ok)
	}
	defer func() {
		if recover() == nil {
			t.Error("packed layout accepted proc id 63")
		}
	}()
	Packed().WithExcl(0, 63)
}

func TestPackedWideEquivalenceAtBoundary(t *testing.T) {
	// Every id the packed layout holds (0..62) the first wide layout
	// holds too; their raw encodings differ but every decoded field must
	// agree for every word both can represent. A divergence here would
	// mean widening the word changed the protocol state it records.
	packed := Packed()
	wide := firstWide(t)
	for _, perm := range []Perm{Invalid, ReadOnly, ReadWrite} {
		for _, excl := range []int{-1, 0, 1, 61, 62} {
			for _, home := range []int{-1, 0, 62} {
				for _, ft := range []bool{false, true} {
					pw := packed.Make(perm, excl, home, ft)
					ww := wide.Make(perm, excl, home, ft)
					if packed.Perm(pw) != wide.Perm(ww) {
						t.Errorf("perm disagrees at perm=%v excl=%d home=%d ft=%v", perm, excl, home, ft)
					}
					pe, pok := packed.Excl(pw)
					we, wok := wide.Excl(ww)
					if pok != wok || (pok && pe != we) {
						t.Errorf("excl disagrees at perm=%v excl=%d home=%d ft=%v: packed %d,%v wide %d,%v",
							perm, excl, home, ft, pe, pok, we, wok)
					}
					ph, pok := packed.Home(pw)
					wh, wok := wide.Home(ww)
					if pok != wok || (pok && ph != wh) {
						t.Errorf("home disagrees at perm=%v excl=%d home=%d ft=%v: packed %d,%v wide %d,%v",
							perm, excl, home, ft, ph, pok, wh, wok)
					}
					if packed.FirstTouched(pw) != wide.FirstTouched(ww) {
						t.Errorf("first-touch disagrees at perm=%v excl=%d home=%d ft=%v", perm, excl, home, ft)
					}
					if packed.Format(pw) != wide.Format(ww) {
						t.Errorf("Format disagrees: packed %q wide %q", packed.Format(pw), wide.Format(ww))
					}
				}
			}
		}
	}
}

func TestGlobalPackedWideEquivalenceStoreLoad(t *testing.T) {
	// The same Store sequence against a packed-backed and a wide-backed
	// directory, with ids up to the packed bound 62, must leave every
	// reader decoding identical protocol state from both.
	wide := firstWide(t)
	net := simchan.New(4, costs.Default())
	gp := NewGlobal(net, Packed(), 3, 4, ident, false)
	gw := NewGlobal(net, wide, 3, 4, ident, false)
	stores := []struct {
		writer, page int
		perm         Perm
		excl, home   int
		ft           bool
	}{
		{0, 0, ReadOnly, -1, 62, false},
		{3, 0, ReadWrite, 62, -1, false},
		{1, 1, ReadWrite, -1, 0, true},
		{2, 2, Invalid, -1, -1, false},
		{3, 0, ReadOnly, -1, -1, false}, // overwrite drops the excl holder
	}
	for _, s := range stores {
		gp.Store(s.writer, s.page, Packed().Make(s.perm, s.excl, s.home, s.ft), 0)
		gw.Store(s.writer, s.page, wide.Make(s.perm, s.excl, s.home, s.ft), 0)
	}
	for reader := 0; reader < 4; reader++ {
		for page := 0; page < 3; page++ {
			for node := 0; node < 4; node++ {
				pw := gp.Load(reader, page, node)
				ww := gw.Load(reader, page, node)
				if Packed().Format(pw) != wide.Format(ww) {
					t.Errorf("reader %d page %d node %d: packed %q, wide %q",
						reader, page, node, Packed().Format(pw), wide.Format(ww))
				}
			}
		}
	}
	for page := 0; page < 3; page++ {
		pn, pp, pok := gp.ExclHolder(page)
		wn, wp, wok := gw.ExclHolder(page)
		if pn != wn || pp != wp || pok != wok {
			t.Errorf("page %d: ExclHolder packed %d,%d,%v wide %d,%d,%v",
				page, pn, pp, pok, wn, wp, wok)
		}
		if gp.Sharers(page, -1) != gw.Sharers(page, -1) {
			t.Errorf("page %d: sharer counts disagree", page)
		}
	}
}

func TestGlobalExclHolderWideLayout(t *testing.T) {
	// ExclHolder under the wide layout, including a processor id the
	// packed fields cannot encode.
	lay, err := LayoutFor(511)
	if err != nil {
		t.Fatal(err)
	}
	if !lay.Wide() {
		t.Fatal("512-proc cluster got the packed layout")
	}
	net := simchan.New(4, costs.Default())
	g := NewGlobal(net, lay, 4, 4, ident, false)
	if _, _, ok := g.ExclHolder(1); ok {
		t.Error("found exclusive holder on empty directory")
	}
	g.Store(2, 1, lay.Make(ReadWrite, 300, -1, false), 0)
	if node, proc, ok := g.ExclHolder(1); !ok || node != 2 || proc != 300 {
		t.Errorf("ExclHolder = %d,%d,%v want 2,300,true", node, proc, ok)
	}
	g.Store(3, 2, lay.Make(ReadWrite, 511, -1, false), 0)
	if node, proc, ok := g.ExclHolder(2); !ok || node != 3 || proc != 511 {
		t.Errorf("ExclHolder = %d,%d,%v want 3,511,true", node, proc, ok)
	}
}

func TestLClock(t *testing.T) {
	var c LClock
	if c.Now() != 0 {
		t.Errorf("new clock = %d", c.Now())
	}
	if got := c.Tick(); got != 1 {
		t.Errorf("first Tick = %d", got)
	}
	if got := c.Tick(); got != 2 {
		t.Errorf("second Tick = %d", got)
	}
	if c.Now() != 2 {
		t.Errorf("Now = %d", c.Now())
	}
}
