package core

import (
	"math"

	"cashmere/internal/sim"
	"cashmere/internal/stats"
	"cashmere/internal/trace"
	"cashmere/internal/transport"
	"cashmere/internal/vm"
	"cashmere/internal/wnotice"
)

// wordBytes is the accounting size of one shared word.
const wordBytes = transport.WordBytes

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

	// pageShift/pageMask mirror the cluster's shift/mask page
	// arithmetic (pageShift is -1 when PageWords is not a power of
	// two).
	pageShift int
	pageMask  int

	// doubling is set under 1L, which write-doubles every store to a
	// page whose frame is not the master copy itself.
	doubling bool

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

// readFrame returns the node's copy of page, faulting until the
// processor's table grants reading it.
func (p *Proc) readFrame(page int) []int64 {
	for !p.table.CanRead(page) {
		p.readFault(page)
	}
	return p.n.pages[page].frame
}

// writePage returns the node's record of page, faulting until the
// processor's table grants writing it.
func (p *Proc) writePage(page int) *pageState {
	for !p.table.CanWrite(page) {
		p.writeFault(page)
	}
	return &p.n.pages[page]
}

// Load reads the shared word at addr.
func (p *Proc) Load(addr int) int64 {
	page, off := p.split(addr)
	return p.readFrame(page)[off]
}

// Store writes the shared word at addr.
func (p *Proc) Store(addr int, v int64) {
	page, off := p.split(addr)
	s := p.writePage(page)
	s.frame[off] = v
	if p.doubling && !s.aliased {
		p.c.masters[page][off] = v
		p.doubled(1)
	}
}

// doubled charges the write doubling of words stores to a page whose
// frame is not the master copy: under 1L each word propagates to the
// home copy on the fly (Section 2.6). The network occupancy is
// accumulated and charged at the next protocol operation.
func (p *Proc) doubled(words int) {
	d := int64(words) * p.c.model.WriteDouble
	p.clk.Advance(d)
	p.st.Charge(stats.WriteDoubling, d)
	p.doubledBytes += int64(words) * wordBytes
	p.st.Data(int64(words) * wordBytes)
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
		copy(dst[:run], p.readFrame(page)[off:off+run])
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
		s := p.writePage(page)
		copy(s.frame[off:off+run], src[:run])
		if p.doubling && !s.aliased {
			copy(p.c.masters[page][off:off+run], src[:run])
			p.doubled(run)
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
		run := min(p.c.cfg.PageWords-off, len(dst))
		frame := p.readFrame(page)[off : off+run]
		row := dst[:len(frame)]
		for i, w := range frame {
			row[i] = math.Float64frombits(uint64(w))
		}
		dst = dst[run:]
		addr += run
	}
}

// StoreFRow writes the float64s of src to consecutive shared addresses
// starting at addr, converting them straight into each page's frame.
// Equivalent to len(src) StoreF calls, with StoreRange's per-page
// faults and charges.
func (p *Proc) StoreFRow(addr int, src []float64) {
	for len(src) > 0 {
		page, off := p.split(addr)
		run := min(p.c.cfg.PageWords-off, len(src))
		s := p.writePage(page)
		frame := s.frame[off : off+run]
		for i, v := range src[:len(frame)] {
			frame[i] = int64(math.Float64bits(v))
		}
		if p.doubling && !s.aliased {
			copy(p.c.masters[page][off:off+run], frame)
			p.doubled(run)
		}
		src = src[run:]
		addr += run
	}
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
