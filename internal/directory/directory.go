// Package directory implements the distributed page directory of the
// Cashmere protocols (paper Section 2.3).
//
// Each shared page has one directory entry consisting of one word per
// protocol node. Crucially, each word is written by exactly one node —
// the node whose view it records — so no global lock is needed to keep
// the entry consistent: expanding the entry to a word per node is the
// paper's alternative to compressing it into a single globally-locked
// word. On the hardware the entry is replicated on every physical node
// by Memory Channel broadcast. The simulator keeps one copy of every
// word, which every node reads and its owner stores atomically, and
// charges each store one Memory Channel write latency (package simchan).
//
// # Word layouts
//
// How a word packs its fields is described by a Layout, which follows
// from one fact about the cluster: its largest processor id. A cluster
// whose ids fit 6-bit fields (ids 0..62, the paper's 32 processors
// included) gets the paper's 32-bit format (Section 2.3), bit for bit:
//
//	bits 0-1   loosest permission for the page on that node
//	bits 2-7   processor holding the page in exclusive mode, plus one
//	bits 8-13  home processor, plus one (redundant across words)
//	bit  14    home was assigned by first-touch (vs round-robin default)
//
// A larger cluster gets the same field order with the processor fields
// widened to whatever its ids need, still within the one 64-bit word
// the simulator stores. Widening the word rather than adding words per
// entry preserves the single-writer discipline unchanged:
// every word still has exactly one writing node, whatever its width.
//
// The one-level protocols use the same machinery with one word per
// processor.
//
// # Concurrency
//
// All methods are safe for concurrent use. Reads are lock-free atomic
// loads of the one copy. The soundness of concurrent Store calls rests
// on the single-writer discipline above: node x only ever stores words
// at index x of an entry, so two Stores to the same word never race at
// the protocol level (the atomics make any accidental violation a stale
// read, not a torn one).
package directory

import (
	"fmt"
	"math/bits"
	"sync/atomic"

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

	// maxProcBits bounds the layout so both processor fields and
	// the first-touch bit stay inside the 63 low bits of the stored
	// int64 word (2 + 2*30 + 1 = 63).
	maxProcBits = 30
)

// Layout describes how a Word packs its permission, exclusive-holder,
// home, and first-touch fields. The zero value is not meaningful; use
// Packed or LayoutFor.
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

// LayoutFor returns the directory word layout for a cluster whose
// largest processor id is maxProcID: processor fields of
// max(6, bits.Len(maxProcID+1)) bits, since they hold proc+1. Up to id
// 62 that is the paper's Packed layout. It fails past 30-bit fields, so
// a cluster too large to encode surfaces at construction instead of as
// a mid-run panic in an encode path.
func LayoutFor(maxProcID int) (Layout, error) {
	if maxProcID < 0 {
		return Layout{}, fmt.Errorf("directory: negative processor id %d", maxProcID)
	}
	pb := max(packedProcBits, uint(bits.Len(uint(maxProcID+1))))
	if pb > maxProcBits {
		return Layout{}, fmt.Errorf("directory: word layout holds processor ids 0..%d, need %d",
			layoutWithProcBits(maxProcBits).MaxProc(), maxProcID)
	}
	return layoutWithProcBits(pb), nil
}

// MaxProc returns the largest processor id the layout's fields encode
// (the fields hold proc+1, so one value is lost to "none").
func (l Layout) MaxProc() int { return int(l.procMask) - 1 }

// Wide reports whether l's processor fields are wider than the paper's.
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

// Global is the distributed page directory: one copy of every word,
// indexed by (page, protocol node).
type Global struct {
	words      []atomic.Int64
	wlat       int64
	lay        Layout
	pages      int
	protoNodes int
}

// NewGlobal creates a directory for pages pages and protoNodes protocol
// nodes whose stores are charged on the given network, with words
// encoded by lay. physOf (which may be nil) and lockBased are unused;
// they stay until the repository benchmark, which passes them, changes.
func NewGlobal(net *simchan.Network, lay Layout, pages, protoNodes int, physOf func(int) int, lockBased bool) *Global {
	return &Global{
		words:      make([]atomic.Int64, pages*protoNodes),
		wlat:       net.Model().MCWriteLatency,
		lay:        lay,
		pages:      pages,
		protoNodes: protoNodes,
	}
}

// Pages returns the number of pages the directory covers.
func (g *Global) Pages() int { return g.pages }

// ProtoNodes returns the number of protocol nodes per entry.
func (g *Global) ProtoNodes() int { return g.protoNodes }

// Layout returns the word layout the directory's entries use.
func (g *Global) Layout() Layout { return g.lay }

// Load returns protocol node protoNode's word for page. reader is
// unused; it stays until the repository benchmark, which passes it,
// changes.
func (g *Global) Load(reader, page, protoNode int) Word {
	return Word(g.words[page*g.protoNodes+protoNode].Load())
}

// Store publishes writer's own word for page at virtual time now and
// returns the time the update is globally performed, one Memory Channel
// write latency later. Only the word's owning node may store it; that
// discipline is what makes the directory lock-free.
func (g *Global) Store(writer, page int, w Word, now int64) int64 {
	g.words[page*g.protoNodes+writer].Store(int64(w))
	return now + g.wlat
}

// Sharers returns the number of protocol nodes with a valid (read-only
// or read-write) view of page, excluding except (pass a negative except
// to count all).
func (g *Global) Sharers(page, except int) int {
	n := 0
	for node := 0; node < g.protoNodes; node++ {
		if node != except && g.lay.Perm(g.Load(node, page, node)) != Invalid {
			n++
		}
	}
	return n
}

// ExclHolder scans page's entry for an exclusive holder and returns the
// protocol node and processor holding it.
func (g *Global) ExclHolder(page int) (node, proc int, ok bool) {
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
func (g *Global) Home(page int) (proc int, ok bool) {
	for n := 0; n < g.protoNodes; n++ {
		if p, has := g.lay.Home(g.Load(n, page, n)); has {
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
