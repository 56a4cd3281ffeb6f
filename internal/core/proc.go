package core

import (
	"math"
	"sync/atomic"

	"cashmere/internal/directory"
	"cashmere/internal/sim"
	"cashmere/internal/stats"
	"cashmere/internal/trace"
	"cashmere/internal/transport"
	"cashmere/internal/vm"
	"cashmere/internal/wnotice"
)

// wordBytes is the accounting size of one shared word.
const wordBytes = transport.WordBytes

// tlbSize is the number of direct-mapped entries in each processor's
// software TLB. Sixteen entries cover the applications' working rows
// (SOR's three neighbouring rows, for instance, land in adjacent
// entries without conflict).
const (
	tlbSize = 16
	tlbMask = tlbSize - 1
)

// tlbEntry caches one page translation in plain fields owned by the
// accessing processor. An entry is valid while its epoch tag equals the
// node's current epoch (see the vm package's epoch contract): any
// permission change, frame republish, or alias flip on the node bumps
// the epoch and so invalidates every cached translation at its next
// use. The common-case access is then one atomic epoch load instead of
// a permission-table load plus a frame-pointer load.
type tlbEntry struct {
	page  int    // cached page number (-1 when empty)
	epoch uint64 // node epoch observed before the state below was read
	perm  directory.Perm
	frame []int64
	// doubling is set when the 1L protocol write-doubles stores on this
	// page (i.e. the frame does not alias the master copy); master is
	// the home copy the doubled words land in.
	doubling bool
	master   []int64
}

// Proc is the handle a simulated processor uses to access shared
// memory, synchronize, and account for computation. Its body runs as a
// coroutine of Cluster.Run, and only while no other processor runs, so
// loads, stores and range copies are plain memory accesses: no protocol
// action can interleave with them.
type Proc struct {
	c      *Cluster
	n      *node
	global int // global processor id
	local  int // index within the protocol node

	table *vm.Table

	// Software TLB state. vmEpoch points at the node's translation
	// generation; pageShift/pageMask mirror the cluster's shift/mask
	// page arithmetic (pageShift is -1 when PageWords is not a power of
	// two).
	tlb       [tlbSize]tlbEntry
	vmEpoch   *atomic.Uint64
	pageShift int
	pageMask  int

	// rowBuf is scratch for the float64 range kernels.
	rowBuf []int64

	clk sim.Clock
	st  stats.Proc

	// dirty is the processor's private dirty list: shared pages written
	// since its last release. dirtyIn mirrors membership.
	dirty   []int
	dirtyIn []bool

	// nle is the no-longer-exclusive list (writable by other local
	// processors); pwn is the per-processor write notice list.
	nle *wnotice.PerProc
	pwn *wnotice.PerProc

	// acquireTS is the logical time of this processor's last acquire.
	acquireTS int64

	// doubledBytes accumulates 1L write-through traffic between
	// protocol operations, then drains onto the network for contention
	// accounting.
	doubledBytes int64

	// tr and ring carry the structured event tracer (internal/trace);
	// both are nil when tracing is disabled, and every emission site is
	// gated on a single nil check of ring (see events.go).
	tr   *trace.Tracer
	ring *trace.Ring

	// Executor state (sched.go): the coroutine's resume, stop and yield
	// functions, whether the body has returned, what the processor is
	// blocked on, and the grant time its waker computed for it.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	done   bool
	waitOn waitKind
	waitID int
	grant  int64
}

// ID returns the processor's global id.
func (p *Proc) ID() int { return p.global }

// NProcs returns the total number of processors in the cluster.
func (p *Proc) NProcs() int { return len(p.c.procs) }

// Now returns the processor's virtual clock in nanoseconds.
func (p *Proc) Now() int64 { return p.clk.Now() }

// Words returns the size of the shared address space in words.
func (p *Proc) Words() int { return p.c.cfg.SharedWords }

// PageWords returns the coherence block size in words.
func (p *Proc) PageWords() int { return p.c.cfg.PageWords }

// Stats returns a snapshot of the processor's statistics.
func (p *Proc) Stats() stats.Proc { return p.st }

// split returns addr's page number and in-page offset.
func (p *Proc) split(addr int) (page, off int) {
	if p.pageShift >= 0 {
		return addr >> uint(p.pageShift), addr & p.pageMask
	}
	return addr / p.c.cfg.PageWords, addr % p.c.cfg.PageWords
}

// fill caches the translation for page, which must currently be mapped
// with at least the permission the caller verified; the page record
// then holds a frame. ep is the node epoch observed before that
// verification, so any protocol transition after it leaves the entry
// stale and forces revalidation.
func (p *Proc) fill(page int, ep uint64) *tlbEntry {
	s := &p.n.pages[page]
	e := &p.tlb[page&tlbMask]
	e.page = page
	e.epoch = ep
	e.perm = p.table.Get(page)
	e.frame = s.frame
	e.doubling = p.c.cfg.Protocol == OneLevelWrite && !s.aliased
	if e.doubling {
		e.master = p.c.masters[page]
	} else {
		e.master = nil
	}
	return e
}

// readEntry returns a TLB entry valid for reading page, faulting as
// needed.
func (p *Proc) readEntry(page int) *tlbEntry {
	e := &p.tlb[page&tlbMask]
	if e.page == page && e.perm >= directory.ReadOnly && e.epoch == p.vmEpoch.Load() {
		return e
	}
	ep := p.vmEpoch.Load()
	for !p.table.CanRead(page) {
		p.readFault(page)
		ep = p.vmEpoch.Load()
	}
	return p.fill(page, ep)
}

// writeEntry returns a TLB entry valid for writing page, faulting as
// needed.
func (p *Proc) writeEntry(page int) *tlbEntry {
	e := &p.tlb[page&tlbMask]
	if e.page == page && e.perm >= directory.ReadWrite && e.epoch == p.vmEpoch.Load() {
		return e
	}
	ep := p.vmEpoch.Load()
	for !p.table.CanWrite(page) {
		p.writeFault(page)
		ep = p.vmEpoch.Load()
	}
	return p.fill(page, ep)
}

// Load reads the shared word at addr.
func (p *Proc) Load(addr int) int64 {
	page, off := p.split(addr)
	e := &p.tlb[page&tlbMask]
	if e.page == page && e.perm >= directory.ReadOnly && e.epoch == p.vmEpoch.Load() {
		return e.frame[off]
	}
	return p.readEntry(page).frame[off]
}

// Store writes the shared word at addr.
func (p *Proc) Store(addr int, v int64) {
	page, off := p.split(addr)
	e := &p.tlb[page&tlbMask]
	if e.page != page || e.perm < directory.ReadWrite || e.epoch != p.vmEpoch.Load() {
		e = p.writeEntry(page)
	}
	e.frame[off] = v
	if e.doubling {
		// Write doubling: propagate the word to the home copy on the
		// fly (Section 2.6). The network occupancy is accumulated and
		// charged at the next protocol operation.
		e.master[off] = v
		p.clk.Advance(p.c.model.WriteDouble)
		p.st.Charge(stats.WriteDoubling, p.c.model.WriteDouble)
		p.doubledBytes += wordBytes
		p.st.Data(wordBytes)
	}
}

// LoadRange reads len(dst) consecutive shared words starting at addr
// into dst. The permission check and fault loop run once per page
// spanned — at the same page boundaries, in the same order, with the
// same charges as word-at-a-time Loads — and the words of each page
// are then copied in one run.
func (p *Proc) LoadRange(dst []int64, addr int) {
	for len(dst) > 0 {
		page, off := p.split(addr)
		run := p.c.cfg.PageWords - off
		if run > len(dst) {
			run = len(dst)
		}
		copy(dst[:run], p.readEntry(page).frame[off:off+run])
		dst = dst[run:]
		addr += run
	}
}

// StoreRange writes the words of src to consecutive shared addresses
// starting at addr. Permission checks, faults, and the 1L
// write-doubling charges are identical in count and order to
// word-at-a-time Stores; doubling time and traffic are accounted in
// bulk per page run.
func (p *Proc) StoreRange(addr int, src []int64) {
	for len(src) > 0 {
		page, off := p.split(addr)
		run := p.c.cfg.PageWords - off
		if run > len(src) {
			run = len(src)
		}
		e := p.writeEntry(page)
		copy(e.frame[off:off+run], src[:run])
		if e.doubling {
			copy(e.master[off:off+run], src[:run])
			d := int64(run) * p.c.model.WriteDouble
			p.clk.Advance(d)
			p.st.Charge(stats.WriteDoubling, d)
			p.doubledBytes += int64(run) * wordBytes
			p.st.Data(int64(run) * wordBytes)
		}
		src = src[run:]
		addr += run
	}
}

// LoadF reads the shared word at addr as a float64.
func (p *Proc) LoadF(addr int) float64 {
	return math.Float64frombits(uint64(p.Load(addr)))
}

// StoreF writes the shared word at addr as a float64.
func (p *Proc) StoreF(addr int, v float64) {
	p.Store(addr, int64(math.Float64bits(v)))
}

// LoadFRow reads len(dst) consecutive shared words starting at addr as
// float64s. Equivalent to len(dst) LoadF calls.
func (p *Proc) LoadFRow(dst []float64, addr int) {
	for len(dst) > 0 {
		page, off := p.split(addr)
		run := p.c.cfg.PageWords - off
		if run > len(dst) {
			run = len(dst)
		}
		frame := p.readEntry(page).frame[off : off+run]
		for i := range frame {
			dst[i] = math.Float64frombits(uint64(frame[i]))
		}
		dst = dst[run:]
		addr += run
	}
}

// StoreFRow writes the float64s of src to consecutive shared addresses
// starting at addr. Equivalent to len(src) StoreF calls.
func (p *Proc) StoreFRow(addr int, src []float64) {
	if cap(p.rowBuf) < len(src) {
		p.rowBuf = make([]int64, len(src))
	}
	buf := p.rowBuf[:len(src)]
	for i, v := range src {
		buf[i] = int64(math.Float64bits(v))
	}
	p.StoreRange(addr, buf)
}

// Compute charges ns nanoseconds of user computation and busBytes of
// memory traffic on the node's shared bus (capacity misses). Bus
// contention stalls — every processor of the SMP node sharing the one
// memory bus, the source of the paper's negative clustering effects —
// are charged to user time, as the paper's breakdown does with cache
// misses.
func (p *Proc) Compute(ns int64, busBytes int64) {
	stall := sim.Stall(ns, busBytes, int64(p.c.cfg.ProcsPerNode), p.c.model.NodeBusBandwidth)
	p.clk.Advance(ns + stall)
	p.st.Charge(stats.User, ns+stall)
}

// Poll charges one message-poll check (inserted at loop heads by the
// instrumentation pass in the real system).
func (p *Proc) Poll() {
	p.clk.Advance(p.c.model.Poll)
	p.st.Charge(stats.Polling, p.c.model.Poll)
}

// PollN charges n message-poll checks at once.
func (p *Proc) PollN(n int64) {
	if n <= 0 {
		return
	}
	d := n * p.c.model.Poll
	p.clk.Advance(d)
	p.st.Charge(stats.Polling, d)
}

// drainDoubled charges any accumulated write-through traffic onto the
// network so concurrent 1L writers contend for Memory Channel bandwidth.
func (p *Proc) drainDoubled() {
	if p.doubledBytes == 0 {
		return
	}
	done := p.c.net.Transfer(p.n.phys, p.doubledBytes, p.clk.Now())
	p.doubledBytes = 0
	if wait := p.clk.AdvanceTo(done); wait > 0 {
		p.st.Charge(stats.CommWait, wait)
	}
}

// markDirty inserts page into the private dirty list.
func (p *Proc) markDirty(page int) {
	if !p.dirtyIn[page] {
		p.dirtyIn[page] = true
		p.dirty = append(p.dirty, page)
	}
}

// clearDirty empties the dirty list.
func (p *Proc) clearDirty() {
	for _, page := range p.dirty {
		p.dirtyIn[page] = false
	}
	p.dirty = p.dirty[:0]
}

// chargeProtocol advances the clock by ns of protocol work. Protocol
// time during the initialization epoch (before EndInit) is not charged:
// the paper's runs are long enough to amortize initialization, while a
// scaled-down problem would be dominated by it.
func (p *Proc) chargeProtocol(ns int64) {
	if !p.c.charging {
		return
	}
	p.clk.Advance(ns)
	p.st.Charge(stats.Protocol, ns)
}

// chargeWait advances the clock to t, charging the skipped time as
// communication/wait. Like chargeProtocol, it is free during the
// initialization epoch.
func (p *Proc) chargeWait(t int64) {
	if !p.c.charging {
		return
	}
	if w := p.clk.AdvanceTo(t); w > 0 {
		p.st.Charge(stats.CommWait, w)
	}
}
