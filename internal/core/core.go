// Package core implements the Cashmere coherence protocols on the
// simulated cluster: the two-level Cashmere-2L protocol of the paper,
// its shootdown variant (Cashmere-2LS), and the one-level comparison
// protocols (Cashmere-1LD with twins and diffs, Cashmere-1L with write
// doubling), plus the home-node-optimization and lock-based-metadata
// ablations.
//
// The engine uses direct execution: one goroutine per simulated
// processor really runs the application against word-granularity shared
// memory, with software page tables standing in for VM protection and
// per-processor virtual clocks (see internal/sim) standing in for real
// time. All protocol state transitions — faults, fetches, diffs,
// directory updates, write notices, exclusive mode — happen for real,
// so the applications' outputs validate the protocol end to end.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"

	"cashmere/internal/costs"
	"cashmere/internal/diff"
	"cashmere/internal/directory"
	"cashmere/internal/msync"
	"cashmere/internal/sim"
	"cashmere/internal/stats"
	"cashmere/internal/topology"
	"cashmere/internal/trace"
	"cashmere/internal/transport/simchan"
	"cashmere/internal/vm"
	"cashmere/internal/wnotice"
)

// Kind selects a coherence protocol.
type Kind int

// The protocols evaluated in the paper.
const (
	// TwoLevel is Cashmere-2L: hardware sharing within a node,
	// software coherence with two-way diffing across nodes.
	TwoLevel Kind = iota
	// TwoLevelSD is Cashmere-2LS: identical to TwoLevel but using
	// shootdown of concurrent local writers instead of two-way diffing.
	TwoLevelSD
	// OneLevelDiff is Cashmere-1LD: every processor is its own
	// protocol node; twins and outgoing diffs propagate changes.
	OneLevelDiff
	// OneLevelWrite is Cashmere-1L: every processor is its own
	// protocol node; shared writes are "doubled" through to the home
	// copy on the fly.
	OneLevelWrite
)

// String returns the paper's abbreviation for the protocol.
func (k Kind) String() string {
	switch k {
	case TwoLevel:
		return "2L"
	case TwoLevelSD:
		return "2LS"
	case OneLevelDiff:
		return "1LD"
	case OneLevelWrite:
		return "1L"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// TwoLevelFamily reports whether the protocol groups an SMP node's
// processors into one protocol node.
func (k Kind) TwoLevelFamily() bool { return k == TwoLevel || k == TwoLevelSD }

// Config describes a cluster and protocol configuration.
type Config struct {
	// Nodes and ProcsPerNode give the physical topology (the paper's
	// platform is 8 nodes x 4 processors). Configurations such as 8:2
	// use fewer processors per node.
	Nodes        int
	ProcsPerNode int

	// Topology, when non-zero, is the canonical cluster description: it
	// supplies Nodes, ProcsPerNode, and SuperpagePages, and its
	// interconnect parameters are folded into Model. The flat fields
	// above remain for callers that only need a shape; fill normalizes
	// the two views so Config() always returns a populated Topology.
	Topology topology.Spec

	// DirectoryLayout selects the directory word layout.
	// directory.LayoutAuto (the default) derives it from the topology:
	// the paper's packed 32-bit layout whenever every processor id fits
	// its 6-bit fields, the wide layout otherwise. Forcing LayoutPacked
	// on a larger topology is a construction-time error.
	DirectoryLayout directory.LayoutKind

	// Protocol selects the coherence protocol.
	Protocol Kind

	// HomeOpt enables the home-node optimization for the one-level
	// protocols: processors physically co-located with a page's home
	// access the master copy directly (Section 2.6). Ignored by the
	// two-level protocols, which subsume it.
	HomeOpt bool

	// LockBasedMeta replaces the lock-free directory and write-notice
	// structures with globally-locked ones (the Section 3.3.5
	// ablation).
	LockBasedMeta bool

	// UseInterrupts delivers explicit requests and shootdowns with
	// interrupts instead of message polling (Section 3.3.4).
	UseInterrupts bool

	// PageWords is the coherence block size in 64-bit words
	// (default 1024, i.e. the platform's 8 Kbyte page).
	PageWords int

	// SharedWords is the size of the shared address space in words.
	SharedWords int

	// SuperpagePages groups pages into superpages that share a home
	// node (default 8), reflecting the Memory Channel mapping-table
	// limits of Section 2.3.
	SuperpagePages int

	// Locks, Flags: how many application locks and flags to provide.
	Locks int
	Flags int

	// Model supplies operation costs; zero value means costs.Default().
	Model *costs.Model

	// Trace attaches a structured protocol-event recorder
	// (internal/trace). It must be sized for at least the cluster's
	// processor and physical-node counts. Nil disables tracing — the
	// protocol then pays one nil check per emission site, the access
	// fast path is untouched, and virtual-time results are bit-identical
	// to a build without the tracing layer. When nil and the
	// CASHMERE_TRACE_PAGE environment variable is set, New builds a
	// compatibility tracer that streams the variable's pages to stderr.
	Trace *trace.Tracer

	// Observer, when non-nil, is called with the fully-constructed
	// cluster at the end of New, before any processor runs. It is the
	// attachment hook for monitoring layers (internal/metrics): the
	// observer can hold the *Cluster and sample SnapshotStats, LinkBusy,
	// and HubBusy while Run executes. Observation must not mutate the
	// cluster; it charges no virtual time, so observed and unobserved
	// runs produce bit-identical statistics.
	Observer func(*Cluster)

	// Adaptive, when non-nil, attaches an adaptive per-page coherence
	// policy engine (internal/policy): the protocol feeds it fault and
	// flush events, and at every barrier global processor 0 runs a
	// decision epoch that may switch pages between write-invalidate,
	// write-update, and broadcast modes, migrate homes, and replicate
	// pages (see policy.go and docs/ADAPTIVE.md). Nil — the default —
	// keeps every page in write-invalidate mode and leaves the
	// protocol's virtual-time behavior bit-identical to a build without
	// the policy layer.
	Adaptive PolicyController
}

func (c *Config) fill() error {
	topoSet := c.Topology != (topology.Spec{})
	if topoSet {
		if err := c.Topology.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		c.Nodes = c.Topology.Nodes
		c.ProcsPerNode = c.Topology.ProcsPerNode
		if c.SuperpagePages == 0 {
			c.SuperpagePages = c.Topology.SuperpagePages
		}
	}
	if c.Nodes <= 0 || c.ProcsPerNode <= 0 {
		return fmt.Errorf("core: need positive Nodes and ProcsPerNode, got %d:%d", c.Nodes, c.ProcsPerNode)
	}
	if c.PageWords == 0 {
		c.PageWords = 1024
	}
	if c.PageWords < 1 {
		return fmt.Errorf("core: invalid PageWords %d", c.PageWords)
	}
	if c.SharedWords <= 0 {
		return fmt.Errorf("core: need positive SharedWords, got %d", c.SharedWords)
	}
	if c.SuperpagePages == 0 {
		c.SuperpagePages = 8
	}
	if c.Model == nil {
		m := costs.Default()
		c.Model = &m
	}
	if topoSet {
		m := c.Topology.ApplyModel(*c.Model)
		c.Model = &m
	}
	// Normalize: the Topology view always reflects the final shape.
	c.Topology.Nodes = c.Nodes
	c.Topology.ProcsPerNode = c.ProcsPerNode
	c.Topology.SuperpagePages = c.SuperpagePages
	return nil
}

// node is one protocol node: a physical SMP node under the two-level
// protocols, a single processor under the one-level protocols.
type node struct {
	id   int // protocol node id
	phys int // physical node hosting it

	mu sync.Mutex // protects protocol state below

	vm     *vm.Node    // per-processor page tables
	frames []frameSlot // local copy of each page (nil if unmapped)
	twins  [][]int64   // twin of each page (nil if none)
	meta   []pageMeta  // second-level directory timestamps
	lclock directory.LClock

	// gwn is the node's globally-accessible write-notice list (one bin
	// per remote protocol node); under the lock-based ablation the
	// single locked list is used instead.
	gwn      *wnotice.Global
	wnLocked *wnotice.Locked

	// arrived flags each local processor's arrival at the current
	// barrier episode, for the last-arriving-local-writer flush rule.
	arrived []bool

	// twinPool recycles retired twin buffers so steady-state twinning
	// allocates nothing; wbuf is reusable scratch for Writers/Mapped
	// queries. Both are protected by mu.
	twinPool [][]int64
	wbuf     []int

	procs []*Proc // local processors
}

// newTwin returns a twin of src, refilling a pooled buffer when one is
// available. Called with n.mu held.
func (n *node) newTwin(src []int64) []int64 {
	var t []int64
	if k := len(n.twinPool); k > 0 {
		t = n.twinPool[k-1]
		n.twinPool[k-1] = nil
		n.twinPool = n.twinPool[:k-1]
	} else {
		t = make([]int64, len(src))
	}
	diff.CopyIn(t, src)
	return t
}

// dropTwin retires page's twin, if any, into the pool. Called with
// n.mu held.
func (n *node) dropTwin(page int) {
	if t := n.twins[page]; t != nil {
		n.twins[page] = nil
		n.twinPool = append(n.twinPool, t)
	}
}

// frameSlot holds an atomically-published page frame pointer: the access
// fast path reads it without the node lock. aliased records whether the
// frame is the master copy itself (home node, or the home-node
// optimization), which the 1L write-doubling fast path consults.
type frameSlot struct {
	p       framePtr
	aliased atomic.Bool
}

// pageMeta is the per-page second-level directory entry: the three
// logical timestamps of Section 2.3.
type pageMeta struct {
	flushTS  int64 // completion time of the last home-node flush
	updateTS int64 // completion time of the last local update
	wnTS     int64 // time the most recent write notice was received
}

// Cluster is a running simulated cluster.
type Cluster struct {
	cfg   Config
	model *costs.Model
	net   *simchan.Network
	dir   *directory.Global
	lay   directory.Layout // word layout, derived from the topology
	tr    *trace.Tracer    // nil when tracing is disabled

	pages      int
	superpages int

	// pageShift/pageMask provide shift/mask page arithmetic when
	// PageWords is a power of two (pageShift is -1 otherwise and the
	// access paths fall back to div/mod). Validated in New.
	pageShift int
	pageMask  int

	// masters[p] is page p's master copy — the Memory Channel receive
	// region at the home node. The home node's local frame aliases it.
	masters [][]int64

	// Home state per superpage: packed (protoNode, proc, firstTouched)
	// words readable lock-free; relocation serializes on homeLock.
	// homeNode/homeProc hold the round-robin defaults from New.
	homeLock sim.VLock
	homes    []atomic.Int64
	homeNode []int
	homeProc []int

	// pageModes holds each page's adaptive coherence mode (PageMode
	// values; all ModeInvalidate unless a policy engine or the
	// verification harness switches a page). Read lock-free on the
	// fault and acquire paths.
	pageModes []atomic.Int32

	// decideBar is the decision-epoch gate: with Config.Adaptive set,
	// every barrier ends with this second rendezvous, entered by
	// processor 0 only after running the policy engine's decision so
	// the release time charges the decision work to everyone.
	decideBar *sim.Rendezvous

	// policyEpoch counts decision epochs; touched only by global
	// processor 0 inside the decision gate.
	policyEpoch int

	// initFlag is raised by EndInit: first-touch relocation is enabled
	// only after program initialization (Section 2.3).
	initFlag atomic.Bool

	// charging gates virtual-time charging of protocol operations; it
	// is lowered during the BeginInit/EndInit initialization epoch so
	// scaled-down problems are not dominated by initialization costs
	// the paper's full-length runs amortize.
	charging atomic.Bool

	nodes []*node
	procs []*Proc

	locks []*msync.Lock
	flags []*msync.Flag
	bar   *msync.Barrier
}

// New builds a cluster for the given configuration.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, model: cfg.Model}
	c.charging.Store(true)
	c.pageShift, c.pageMask = -1, 0
	if cfg.PageWords&(cfg.PageWords-1) == 0 {
		c.pageShift = bits.TrailingZeros(uint(cfg.PageWords))
		c.pageMask = cfg.PageWords - 1
	}
	c.pages = (cfg.SharedWords + cfg.PageWords - 1) / cfg.PageWords
	c.superpages = (c.pages + cfg.SuperpagePages - 1) / cfg.SuperpagePages

	total := cfg.Nodes * cfg.ProcsPerNode
	c.tr = cfg.Trace
	if c.tr == nil {
		c.tr = envTracer(total, cfg.Nodes)
	}
	if c.tr != nil {
		if c.tr.Procs() < total || c.tr.Links() < cfg.Nodes {
			return nil, fmt.Errorf("core: tracer sized for %d procs / %d links, cluster needs %d / %d",
				c.tr.Procs(), c.tr.Links(), total, cfg.Nodes)
		}
		// Reject filter pages the address space does not contain, with
		// the same warning bad CASHMERE_TRACE_PAGE values get.
		c.tr.ClampPages(c.pages, func(page int) {
			fmt.Fprintf(os.Stderr, "cashmere: ignoring traced page %d: cluster has %d pages\n",
				page, c.pages)
		})
	}

	c.net = simchan.New(cfg.Nodes, *c.model)
	c.net.SetTracer(c.tr)

	// The directory's processor fields hold global processor ids, so the
	// layout is sized for the largest one. Oversized topologies surface
	// here as a construction error naming the violated limit, not as a
	// panic deep in an encode path mid-run.
	lay, err := directory.ChooseLayout(cfg.DirectoryLayout, total-1)
	if err != nil {
		return nil, fmt.Errorf("core: topology %s (%d processors): %w", cfg.Topology, total, err)
	}
	c.lay = lay

	protoNodes := cfg.Nodes
	if !cfg.Protocol.TwoLevelFamily() {
		protoNodes = cfg.Nodes * cfg.ProcsPerNode
	}
	physOf := func(pn int) int { return c.physOfProto(pn) }
	c.dir = directory.NewGlobal(c.net, lay, c.pages, protoNodes, physOf, cfg.LockBasedMeta)

	c.masters = make([][]int64, c.pages)
	for p := range c.masters {
		c.masters[p] = make([]int64, cfg.PageWords)
	}
	c.pageModes = make([]atomic.Int32, c.pages)

	c.homeNode = make([]int, c.superpages)
	c.homeProc = make([]int, c.superpages)
	for sp := range c.homeNode {
		// Round-robin default assignment across protocol nodes.
		c.homeNode[sp] = sp % protoNodes
		c.homeProc[sp] = c.firstProcOf(c.homeNode[sp])
	}
	c.initHomes()

	procsPerProto := cfg.ProcsPerNode
	if !cfg.Protocol.TwoLevelFamily() {
		procsPerProto = 1
	}
	c.nodes = make([]*node, protoNodes)
	for i := range c.nodes {
		n := &node{
			id:      i,
			phys:    c.physOfProto(i),
			vm:      vm.NewNode(procsPerProto, c.pages),
			frames:  make([]frameSlot, c.pages),
			twins:   make([][]int64, c.pages),
			meta:    make([]pageMeta, c.pages),
			arrived: make([]bool, procsPerProto),
		}
		if cfg.LockBasedMeta {
			n.wnLocked = wnotice.NewLocked()
		} else {
			n.gwn = wnotice.NewGlobal(protoNodes)
		}
		c.nodes[i] = n
	}

	c.procs = make([]*Proc, total)
	for g := 0; g < total; g++ {
		pn := c.protoOfProc(g)
		n := c.nodes[pn]
		local := len(n.procs)
		p := &Proc{
			c:         c,
			n:         n,
			global:    g,
			local:     local,
			table:     n.vm.Proc(local),
			vmEpoch:   n.vm.Epoch(),
			pageShift: c.pageShift,
			pageMask:  c.pageMask,
			sd:        cfg.Protocol == TwoLevelSD,
			nle:       wnotice.NewPerProc(c.pages),
			pwn:       wnotice.NewPerProc(c.pages),
			dirtyIn:   make([]bool, c.pages),
		}
		if c.tr != nil {
			p.tr = c.tr
			p.ring = c.tr.ProcRing(g)
		}
		for i := range p.tlb {
			p.tlb[i].page = -1
		}
		p.activeRange.Store(-1)
		n.procs = append(n.procs, p)
		c.procs[g] = p
	}

	c.locks = make([]*msync.Lock, cfg.Locks)
	for i := range c.locks {
		c.locks[i] = msync.NewLock(c.net)
	}
	c.flags = make([]*msync.Flag, cfg.Flags)
	for i := range c.flags {
		c.flags[i] = msync.NewFlag(c.net)
	}
	c.bar = msync.NewBarrier(total, c.model.Barrier(total, cfg.Protocol.TwoLevelFamily()))
	c.decideBar = sim.NewRendezvous(total)
	if cfg.Observer != nil {
		cfg.Observer(c)
	}
	return c, nil
}

// physOfProto maps a protocol node to its physical node.
func (c *Cluster) physOfProto(pn int) int {
	if c.cfg.Protocol.TwoLevelFamily() {
		return pn
	}
	return pn / c.cfg.ProcsPerNode
}

// protoOfProc maps a global processor id to its protocol node.
func (c *Cluster) protoOfProc(g int) int {
	if c.cfg.Protocol.TwoLevelFamily() {
		return g / c.cfg.ProcsPerNode
	}
	return g
}

// firstProcOf returns the lowest global processor id on protocol node pn.
func (c *Cluster) firstProcOf(pn int) int {
	if c.cfg.Protocol.TwoLevelFamily() {
		return pn * c.cfg.ProcsPerNode
	}
	return pn
}

// protoOfHomeProc maps the directory's home processor id back to its
// protocol node.
func (c *Cluster) protoOfHomeProc(proc int) int { return c.protoOfProc(proc) }

// NumProcs returns the total processor count.
func (c *Cluster) NumProcs() int { return len(c.procs) }

// Pages returns the number of shared pages.
func (c *Cluster) Pages() int { return c.pages }

// PageWords returns the coherence block size in words.
func (c *Cluster) PageWords() int { return c.cfg.PageWords }

// Config returns the cluster's (filled-in) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Model returns the cost model the cluster charges operations under.
func (c *Cluster) Model() costs.Model { return *c.model }

// Tracer returns the attached protocol-event tracer (which may have
// been built from CASHMERE_TRACE_PAGE), or nil when tracing is
// disabled.
func (c *Cluster) Tracer() *trace.Tracer { return c.tr }

// Result summarizes a run.
type Result struct {
	stats.Total
	Finish []int64 // per-processor finishing virtual times
}

// Run executes body on every simulated processor concurrently and
// returns the aggregated statistics. It may be called once per cluster.
func (c *Cluster) Run(body func(p *Proc)) Result {
	var wg sync.WaitGroup
	for _, p := range c.procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			body(p)
		}(p)
	}
	wg.Wait()

	finish := make([]int64, len(c.procs))
	perProc := make([]*stats.Proc, len(c.procs))
	for i, p := range c.procs {
		finish[i] = p.clk.Now()
		perProc[i] = &p.st
	}
	return Result{Total: stats.Aggregate(perProc, finish), Finish: finish}
}

// superOf returns the superpage containing page.
func (c *Cluster) superOf(page int) int { return page / c.cfg.SuperpagePages }

// ReadShared returns the current value of the shared word at addr. It
// is intended for validating results after Run returns: it reads the
// master copy, or the exclusive holder's frame for pages still held in
// exclusive mode (whose master may be stale by design).
func (c *Cluster) ReadShared(addr int) int64 {
	page := addr / c.cfg.PageWords
	off := addr % c.cfg.PageWords
	// Scan for the holder through each node's own directory replica:
	// the directory has no loop-back, so only the owner's doubled copy
	// of its word is authoritative.
	if holder, _, ok := c.dir.ExclHolderOwn(page); ok {
		if f := c.nodes[holder].frames[page].p.Load(); f != nil {
			return atomic.LoadInt64(&(*f)[off])
		}
	}
	return atomic.LoadInt64(&c.masters[page][off])
}

// ReadSharedF returns ReadShared(addr) interpreted as a float64.
func (c *Cluster) ReadSharedF(addr int) float64 {
	return math.Float64frombits(uint64(c.ReadShared(addr)))
}

// BytesMoved returns the total Memory Channel payload traffic so far.
func (c *Cluster) BytesMoved() int64 { return c.net.BytesMoved() }

// SnapshotStats aggregates the per-processor statistics as they stand
// right now. It is a monitoring-grade read: the per-processor counters
// are plain fields written by their owner goroutines, so a snapshot
// taken mid-run may be slightly stale or internally inconsistent
// (individual counters are read without synchronization). That is
// acceptable for a metrics scrape and free for the simulated
// processors — sampling charges no virtual time and takes no protocol
// lock. After Run returns the snapshot is exact.
func (c *Cluster) SnapshotStats() stats.Total {
	finish := make([]int64, len(c.procs))
	perProc := make([]*stats.Proc, len(c.procs))
	for i, p := range c.procs {
		finish[i] = p.clk.Now()
		perProc[i] = &p.st
	}
	return stats.Aggregate(perProc, finish)
}

// LinkBusy returns each Memory Channel link's cumulative busy
// (occupied) virtual nanoseconds, indexed by physical node. Like
// SnapshotStats, mid-run reads are monitoring-grade.
func (c *Cluster) LinkBusy() []int64 {
	busy := make([]int64, c.cfg.Nodes)
	for i := range busy {
		busy[i] = c.net.LinkBusyNS(i)
	}
	return busy
}

// HubBusy returns the shared hub's cumulative busy virtual nanoseconds
// and whether the configured fabric has a hub at all (the switched
// fabric does not).
func (c *Cluster) HubBusy() (int64, bool) { return c.net.HubBusyNS() }
