// Package directory implements the distributed page directory of the
// Cashmere protocols (paper Section 2.3).
//
// Each shared page has one directory entry consisting of one word per
// protocol node. Crucially, each word is written by exactly one node —
// the node whose view it records — so no global lock is needed to keep
// the entry consistent: expanding the entry to a word per node is the
// paper's alternative to compressing it into a single globally-locked
// word. The entry is replicated on every physical node by Memory Channel
// broadcast; because the directory region does not use loop-back, a
// writer must manually "double" its write into its own replica.
//
// # Word layouts
//
// How a word packs its fields is described by a Layout, derived from the
// cluster topology. The packed legacy layout is the paper's 32-bit
// format (Section 2.3), bit-identical to the original platform's and the
// fast default whenever every processor id fits its 6-bit fields:
//
//	bits 0-1   loosest permission for the page on that node
//	bits 2-7   processor holding the page in exclusive mode, plus one
//	bits 8-13  home processor, plus one (redundant across words)
//	bit  14    home was assigned by first-touch (vs round-robin default)
//
// Clusters with more than 62 processors use the wide layout: the same
// field order with processor fields widened to whatever the topology
// needs (at least 7 bits), still within the one 64-bit word the
// simulated region stores. Widening the word rather than adding words
// per entry preserves the single-writer discipline unchanged: every
// word still has exactly one writing node, whatever its width.
//
// The one-level protocols use the same machinery with one word per
// processor, and the lock-based ablation (Section 3.3.5) serializes
// updates behind per-page global locks.
//
// # Concurrency
//
// All methods are safe for concurrent use. Reads are lock-free atomic
// loads from the caller's local replica. The soundness of concurrent
// Store calls rests on the single-writer discipline above: node x only
// ever stores words at index x of an entry, so two Stores to the same
// word never race at the protocol level (the simulator's atomics make
// any accidental violation a stale read, not a torn one). Under the
// lock-based ablation callers must bracket Store with the page's
// PageLock; the directory itself does not acquire it.
package directory

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"cashmere/internal/sim"
	"cashmere/internal/transport/simchan"
)

// Perm is a page access permission, from most to least restrictive.
type Perm uint8

// Page permissions.
const (
	Invalid Perm = iota
	ReadOnly
	ReadWrite
)

// String returns a short name for the permission.
func (p Perm) String() string {
	switch p {
	case Invalid:
		return "inv"
	case ReadOnly:
		return "ro"
	case ReadWrite:
		return "rw"
	default:
		return fmt.Sprintf("Perm(%d)", uint8(p))
	}
}

// Word is one node's packed view of a page. Its field boundaries are
// given by the Layout that encoded it; a Word is meaningless without
// its Layout. Packed-layout words occupy the low 32 bits, matching the
// paper's hardware format bit for bit.
type Word uint64

const (
	permBits = 2
	permMask = Word(1<<permBits - 1)

	// packedProcBits is the paper's processor field width: 6 bits
	// holding proc+1, so ids 0..62.
	packedProcBits = 6

	// wideMinProcBits keeps every wide layout distinguishable from the
	// packed legacy layout: a topology small enough for 6-bit fields
	// always uses the packed layout instead.
	wideMinProcBits = 7

	// maxProcBits bounds the wide layout so both processor fields and
	// the first-touch bit stay inside the 63 low bits of the region's
	// int64 word (2 + 2*30 + 1 = 63).
	maxProcBits = 30
)

// LayoutKind selects how the directory word layout is chosen for a
// topology.
type LayoutKind int

const (
	// LayoutAuto derives the layout from the topology: the paper's
	// packed 32-bit layout whenever every processor id fits its 6-bit
	// fields, the wide layout otherwise. The default.
	LayoutAuto LayoutKind = iota
	// LayoutPacked forces the paper's packed layout; topologies whose
	// processor ids exceed its bound are a construction-time error.
	LayoutPacked
	// LayoutWide forces the wide layout regardless of topology size
	// (used to cross-check the two layouts on small runs).
	LayoutWide
)

// String returns a short name for the layout kind.
func (k LayoutKind) String() string {
	switch k {
	case LayoutAuto:
		return "auto"
	case LayoutPacked:
		return "packed"
	case LayoutWide:
		return "wide"
	default:
		return fmt.Sprintf("LayoutKind(%d)", int(k))
	}
}

// Layout describes how a Word packs its permission, exclusive-holder,
// home, and first-touch fields. The zero value is not meaningful; use
// Packed or ChooseLayout.
type Layout struct {
	procBits  uint
	exclShift uint
	homeShift uint
	touched   Word
	procMask  Word // in-field mask, unshifted
}

// Packed returns the paper's packed 32-bit layout: 6-bit processor
// fields holding proc+1, the format of Section 2.3.
func Packed() Layout { return layoutWithProcBits(packedProcBits) }

func layoutWithProcBits(pb uint) Layout {
	return Layout{
		procBits:  pb,
		exclShift: permBits,
		homeShift: permBits + pb,
		touched:   1 << (permBits + 2*pb),
		procMask:  Word(1<<pb - 1),
	}
}

// ChooseLayout returns the directory word layout for a cluster whose
// largest processor id is maxProcID, honoring the kind. It fails when
// the processor ids cannot be encoded — packed layouts hold ids up to
// 62, wide layouts up to 2^30-2 — so misconfigured topologies surface
// at construction instead of as a mid-run panic in an encode path.
func ChooseLayout(kind LayoutKind, maxProcID int) (Layout, error) {
	if maxProcID < 0 {
		return Layout{}, fmt.Errorf("directory: negative processor id %d", maxProcID)
	}
	packed := Packed()
	switch kind {
	case LayoutAuto:
		if maxProcID <= packed.MaxProc() {
			return packed, nil
		}
	case LayoutPacked:
		if maxProcID > packed.MaxProc() {
			return Layout{}, fmt.Errorf("directory: packed word layout holds processor ids 0..%d, need %d",
				packed.MaxProc(), maxProcID)
		}
		return packed, nil
	case LayoutWide:
		// fall through to the wide sizing below
	default:
		return Layout{}, fmt.Errorf("directory: unknown layout kind %d", int(kind))
	}
	pb := uint(bits.Len(uint(maxProcID + 1))) // field stores proc+1
	if pb < wideMinProcBits {
		pb = wideMinProcBits
	}
	if pb > maxProcBits {
		return Layout{}, fmt.Errorf("directory: wide word layout holds processor ids 0..%d, need %d",
			layoutWithProcBits(maxProcBits).MaxProc(), maxProcID)
	}
	return layoutWithProcBits(pb), nil
}

// MaxProc returns the largest processor id the layout's fields encode
// (the fields hold proc+1, so one value is lost to "none").
func (l Layout) MaxProc() int { return int(l.procMask) - 1 }

// Wide reports whether l is a wide (non-paper) layout.
func (l Layout) Wide() bool { return l.procBits != packedProcBits }

// Perm returns the loosest permission any processor on the node holds.
func (l Layout) Perm(w Word) Perm { return Perm(w & permMask) }

// WithPerm returns w with the permission field set to p.
func (l Layout) WithPerm(w Word, p Perm) Word { return (w &^ permMask) | Word(p)&permMask }

// Excl returns the processor holding the page exclusively on this node,
// if any.
func (l Layout) Excl(w Word) (proc int, ok bool) {
	v := int(w >> l.exclShift & l.procMask)
	return v - 1, v != 0
}

// WithExcl returns w recording proc as the exclusive holder. Processor
// ids are validated against the layout at cluster construction; an
// out-of-range id here is a protocol bug and panics.
func (l Layout) WithExcl(w Word, proc int) Word {
	if proc < 0 || proc > l.MaxProc() {
		panic(fmt.Sprintf("directory: exclusive proc %d out of layout range 0..%d", proc, l.MaxProc()))
	}
	return (w &^ (l.procMask << l.exclShift)) | Word(proc+1)<<l.exclShift
}

// ClearExcl returns w with no exclusive holder.
func (l Layout) ClearExcl(w Word) Word { return w &^ (l.procMask << l.exclShift) }

// Home returns the home processor recorded in this word, if set.
func (l Layout) Home(w Word) (proc int, ok bool) {
	v := int(w >> l.homeShift & l.procMask)
	return v - 1, v != 0
}

// WithHome returns w recording proc as the home processor. See WithExcl
// for the range contract.
func (l Layout) WithHome(w Word, proc int) Word {
	if proc < 0 || proc > l.MaxProc() {
		panic(fmt.Sprintf("directory: home proc %d out of layout range 0..%d", proc, l.MaxProc()))
	}
	return (w &^ (l.procMask << l.homeShift)) | Word(proc+1)<<l.homeShift
}

// FirstTouched reports whether the home was assigned by the first-touch
// heuristic rather than the round-robin default.
func (l Layout) FirstTouched(w Word) bool { return w&l.touched != 0 }

// WithFirstTouched returns w with the first-touch bit set.
func (l Layout) WithFirstTouched(w Word) Word { return w | l.touched }

// Make assembles a word in one call: permission, exclusive holder
// (negative for none), home processor (negative for none), and the
// first-touch bit.
func (l Layout) Make(p Perm, excl, home int, touched bool) Word {
	w := l.WithPerm(0, p)
	if excl >= 0 {
		w = l.WithExcl(w, excl)
	}
	if home >= 0 {
		w = l.WithHome(w, home)
	}
	if touched {
		w = l.WithFirstTouched(w)
	}
	return w
}

// Format renders the word for debugging.
func (l Layout) Format(w Word) string {
	s := l.Perm(w).String()
	if p, ok := l.Excl(w); ok {
		s += fmt.Sprintf(" excl=%d", p)
	}
	if p, ok := l.Home(w); ok {
		s += fmt.Sprintf(" home=%d", p)
		if l.FirstTouched(w) {
			s += "(ft)"
		}
	}
	return s
}

// Global is the distributed, replicated page directory. Words are
// indexed by (page, protocol node); physOf maps protocol nodes to the
// physical nodes of the Memory Channel (identity for two-level
// protocols; proc-to-SMP mapping for one-level protocols, where every
// processor is its own protocol node).
type Global struct {
	region     *simchan.Region
	lay        Layout
	pages      int
	protoNodes int
	physOf     func(int) int
	lockBased  bool
	locks      []sim.VLock
}

// NewGlobal creates a directory for pages pages and protoNodes protocol
// nodes on the given network, with words encoded by lay. When lockBased
// is true, updates must be bracketed by Lock/Unlock on the page's
// global lock (the Section 3.3.5 ablation).
func NewGlobal(net *simchan.Network, lay Layout, pages, protoNodes int, physOf func(int) int, lockBased bool) *Global {
	g := &Global{
		region:     net.NewRegion(pages*protoNodes, false),
		lay:        lay,
		pages:      pages,
		protoNodes: protoNodes,
		physOf:     physOf,
		lockBased:  lockBased,
	}
	if lockBased {
		g.locks = make([]sim.VLock, pages)
	}
	return g
}

// Pages returns the number of pages the directory covers.
func (g *Global) Pages() int { return g.pages }

// ProtoNodes returns the number of protocol nodes per entry.
func (g *Global) ProtoNodes() int { return g.protoNodes }

// Layout returns the word layout the directory's entries use.
func (g *Global) Layout() Layout { return g.lay }

// LockBased reports whether updates require the per-page global lock.
func (g *Global) LockBased() bool { return g.lockBased }

// PageLock returns the global lock for page under the lock-based
// variant, or nil for the lock-free directory.
func (g *Global) PageLock(page int) *sim.VLock {
	if !g.lockBased {
		return nil
	}
	return &g.locks[page]
}

func (g *Global) off(page, protoNode int) int {
	return page*g.protoNodes + protoNode
}

// Load returns protocol node protoNode's word for page, as read by a
// processor on the given protocol node reader (reads always hit the
// local replica).
func (g *Global) Load(reader, page, protoNode int) Word {
	return Word(g.region.Read(g.physOf(reader), g.off(page, protoNode)))
}

// Store broadcasts writer's own word for page at virtual time now and
// doubles it into the local replica. It returns the time the update is
// globally performed. Only the word's owning node may store it; that
// discipline is what makes the directory lock-free.
func (g *Global) Store(writer, page int, w Word, now int64) int64 {
	phys := g.physOf(writer)
	off := g.off(page, writer)
	done := g.region.Write(phys, off, int64(w), now)
	g.region.Poke(phys, off, int64(w))
	return done
}

// Sharers returns the number of protocol nodes with a valid (read-only
// or read-write) view of page, excluding except (pass a negative except
// to count all).
func (g *Global) Sharers(reader, page, except int) int {
	n := 0
	for node := 0; node < g.protoNodes; node++ {
		if node == except {
			continue
		}
		if g.lay.Perm(g.Load(reader, page, node)) != Invalid {
			n++
		}
	}
	return n
}

// ExclHolder scans page's entry for an exclusive holder and returns the
// protocol node and processor holding it, as seen from reader's replica.
func (g *Global) ExclHolder(reader, page int) (node, proc int, ok bool) {
	for n := 0; n < g.protoNodes; n++ {
		if p, has := g.lay.Excl(g.Load(reader, page, n)); has {
			return n, p, true
		}
	}
	return 0, 0, false
}

// ExclHolderOwn scans page's entry for an exclusive holder, reading
// each node's word through that node's own replica. The directory
// region has no loop-back, so a node's doubled local copy is the
// authoritative version of its word; any other replica only sees it
// once the broadcast has been delivered. Out-of-band inspection (such
// as result validation after a run) must use this rather than trusting
// one observer's replica for every word.
func (g *Global) ExclHolderOwn(page int) (node, proc int, ok bool) {
	for n := 0; n < g.protoNodes; n++ {
		if p, has := g.lay.Excl(g.Load(n, page, n)); has {
			return n, p, true
		}
	}
	return 0, 0, false
}

// Home returns the home processor of page as recorded in the directory
// (any node's word; home indications are redundant), and whether one is
// recorded.
func (g *Global) Home(reader, page int) (proc int, ok bool) {
	for n := 0; n < g.protoNodes; n++ {
		if p, has := g.lay.Home(g.Load(reader, page, n)); has {
			return p, true
		}
	}
	return 0, false
}

// LClock is a node's protocol logical clock (paper Section 2.2:
// incremented on page faults, page flushes, acquires and releases). It
// is shared by the node's processors and updated with atomic operations,
// standing in for the paper's ll/sc sequences.
type LClock struct {
	v atomic.Int64
}

// Tick increments the clock and returns the new value.
func (c *LClock) Tick() int64 { return c.v.Add(1) }

// Now returns the current logical time.
func (c *LClock) Now() int64 { return c.v.Load() }
