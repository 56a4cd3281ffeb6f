// Package apps implements the paper's eight-application benchmark suite
// (Section 3.2): SOR, LU, Water, TSP, Gauss, Ilink, Em3d, and Barnes.
//
// Each application has a parallel body written against the DSM API
// (the Proc interface, satisfied both by the simulator's core.Proc and
// by the multi-process runtime's processor) and a sequential reference
// that performs the same
// computation on plain memory while accumulating the same modelled
// computation time. The sequential time is the Table 2 baseline used
// for speedups; the reference results validate the parallel run, so the
// coherence protocols are checked end to end on every benchmark.
//
// Problem sizes are scaled down from the paper's (which were sized for
// a 32-processor AlphaServer cluster and multi-minute runs) but keep
// each application's sharing pattern: band partitioning with boundary
// exchange (SOR, Em3d), block ownership with bursty handoff (LU),
// migratory lock-protected accumulation (Water), a central work queue
// (TSP), single-producer/multiple-consumer pivot rows under flags
// (Gauss), master-slave phases (Ilink), and sequential tree building
// with dynamically balanced force computation (Barnes).
package apps

import (
	"fmt"

	"cashmere/internal/costs"
	"cashmere/internal/sim"
)

// Proc is the DSM API surface an application body runs against: shared
// word/float accesses, modelled computation, synchronization, and the
// initialization epoch. core.Proc (the simulator engine) and the
// multi-process runtime's processor (internal/mprun) both satisfy it,
// which is what lets one application source run on either.
type Proc interface {
	// ID returns the global processor id, 0..NProcs()-1.
	ID() int
	// NProcs returns the total processor count.
	NProcs() int

	// Load and Store access one shared 64-bit word.
	Load(addr int) int64
	Store(addr int, v int64)
	// LoadF/StoreF access a shared word as a float64.
	LoadF(addr int) float64
	StoreF(addr int, v float64)
	// LoadFRow/StoreFRow access a contiguous run of shared float64s.
	LoadFRow(dst []float64, addr int)
	StoreFRow(addr int, src []float64)

	// Compute charges ns nanoseconds of local computation plus busBytes
	// of memory-bus traffic.
	Compute(ns, busBytes int64)
	// Poll services pending protocol requests (PollN amortizes the
	// check over n loop iterations).
	Poll()
	PollN(n int64)

	// Lock/Unlock, SetFlag/WaitFlag, and Barrier are the application
	// synchronization operations (paper Section 2.2).
	Lock(i int)
	Unlock(i int)
	SetFlag(i int)
	WaitFlag(i int)
	Barrier()

	// BeginInit/EndInit bracket the initialization epoch; Warmup runs f
	// without charging virtual time.
	BeginInit()
	EndInit()
	Warmup(f func())
}

// Memory is the post-run view an application's Verify reads: the final
// shared memory contents plus the cost model the run was charged under
// (for regenerating the sequential reference).
type Memory interface {
	// Model returns the cost model the run used.
	Model() costs.Model
	// ReadShared returns the current value of the shared word at addr.
	ReadShared(addr int) int64
	// ReadSharedF returns ReadShared(addr) as a float64.
	ReadSharedF(addr int) float64
}

// Shape gives the cluster resources an application needs.
type Shape struct {
	SharedWords int
	Locks       int
	Flags       int
}

// App is one benchmark application at a fixed problem size.
type App interface {
	// Name returns the application's name as used in the paper.
	Name() string
	// DataSet describes the problem size (for Table 2).
	DataSet() string
	// Shape returns the shared-memory and synchronization resources
	// required.
	Shape() Shape
	// Body runs the parallel program on one processor.
	Body(p Proc)
	// SeqTime returns the sequential (uninstrumented) execution time in
	// virtual nanoseconds under the given cost model.
	SeqTime(m costs.Model) int64
	// Verify checks the shared memory left by a parallel run against
	// the sequential reference.
	Verify(c Memory) error
}

// SeqClock accumulates the virtual time of a sequential reference run,
// mirroring core.Proc.Compute's bus model with the whole node memory
// bus to itself.
type SeqClock struct {
	clk sim.Clock
	bw  int64
}

// NewSeqClock returns a clock using the model's node memory bus
// bandwidth.
func NewSeqClock(m costs.Model) *SeqClock {
	return &SeqClock{bw: m.NodeBusBandwidth}
}

// Compute charges ns nanoseconds of computation plus busBytes of memory
// traffic, exactly as core.Proc.Compute does for a lone processor.
func (s *SeqClock) Compute(ns, busBytes int64) {
	s.clk.Advance(ns + sim.Stall(ns, busBytes, 1, s.bw))
}

// NS returns the accumulated virtual time.
func (s *SeqClock) NS() int64 { return s.clk.Now() }

// Layout hands out page-aligned base addresses in the shared space.
type Layout struct {
	next      int
	pageWords int
}

// NewLayout returns an allocator for a space with the given page size.
func NewLayout(pageWords int) *Layout {
	if pageWords <= 0 {
		panic("apps: page size must be positive")
	}
	return &Layout{pageWords: pageWords}
}

// Array reserves words shared words starting on a page boundary and
// returns the base address.
func (l *Layout) Array(words int) int {
	// Round the cursor up to a page boundary.
	l.next = (l.next + l.pageWords - 1) / l.pageWords * l.pageWords
	base := l.next
	l.next += words
	return base
}

// Raw reserves words without alignment.
func (l *Layout) Raw(words int) int {
	base := l.next
	l.next += words
	return base
}

// Words returns the total space reserved so far.
func (l *Layout) Words() int { return l.next }

// PageWords is the page size used by the applications' layouts; it
// matches the core default (8 Kbytes of 64-bit words).
const PageWords = 1024

// chunk returns the half-open range [lo,hi) of n items assigned to
// worker id of nproc by even contiguous partitioning.
func chunk(n, id, nproc int) (lo, hi int) {
	per := n / nproc
	rem := n % nproc
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// verifyF compares a parallel float64 result against the reference with
// a relative/absolute tolerance.
func verifyF(what string, i int, got, want, tol float64) error {
	d := got - want
	if d < 0 {
		d = -d
	}
	bound := tol
	if w := want; w < 0 {
		w = -w
		if w*tol > bound {
			bound = w * tol
		}
	} else if w*tol > bound {
		bound = w * tol
	}
	if d > bound {
		return fmt.Errorf("%s[%d] = %g, want %g (|diff| %g > %g)", what, i, got, want, d, bound)
	}
	return nil
}

// All returns the full benchmark suite at the default (scaled-down)
// problem sizes, in the paper's Table 2 order.
func All() []App {
	return []App{
		DefaultSOR(),
		DefaultLU(),
		DefaultWater(),
		DefaultTSP(),
		DefaultGauss(),
		DefaultIlink(),
		DefaultEm3d(),
		DefaultBarnes(),
	}
}

// Small returns tiny instances of the full suite for tests.
func Small() []App {
	return []App{
		SmallSOR(),
		SmallLU(),
		SmallWater(),
		SmallTSP(),
		SmallGauss(),
		SmallIlink(),
		SmallEm3d(),
		SmallBarnes(),
	}
}
