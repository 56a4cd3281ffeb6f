package core

import (
	"fmt"

	"cashmere/internal/directory"
	"cashmere/internal/stats"
	"cashmere/internal/trace"
)

// Adaptive per-page coherence policy (see docs/ADAPTIVE.md).
//
// Every page carries a coherence mode. The default, ModeInvalidate, is
// the paper's protocol exactly: write notices invalidate stale mappings
// at an acquire and readers refetch on the next fault. The adaptive
// engine (internal/policy) may switch individual pages to:
//
//   - ModeUpdate (write-update): a write notice is serviced at the
//     acquire by refreshing the local frame from the master copy in
//     place — an incoming diff against the twin when local writers are
//     active, a counted copy otherwise — instead of invalidating the
//     mappings. Consumers keep their mappings and skip the fault,
//     refetch transfer, and remap on their next read. The data cost is
//     already paid: the producer's release flushed the modifications to
//     the master over the Memory Channel's broadcast medium.
//
//   - ModeBroadcast: write-update semantics plus eager replication —
//     the page is pushed to every node and mapped read-only for every
//     processor, so readers that never touched it skip even the first
//     fault. Reserved for read-mostly pages; a write fault on a
//     broadcast page demotes it to ModeInvalidate on the spot (the
//     safety valve for a misclassified page).
//
// Mode changes, home migrations, and replications are applied by one
// deciding processor at a decision epoch (a barrier at which every
// other processor is quiesced between the rendezvous and the decision
// gate), or by the verification harness between modelcheck transitions.
// The mode table itself is read lock-free on the fault and acquire
// paths; with Config.Adaptive nil every page stays in ModeInvalidate
// and the protocol's virtual-time behavior is bit-identical to a build
// without this layer.

// PageMode is a page's coherence mode under the adaptive policy.
type PageMode int32

const (
	// ModeInvalidate is the paper's write-invalidate protocol (default).
	ModeInvalidate PageMode = iota
	// ModeUpdate services write notices by refreshing the frame in
	// place at the acquire instead of invalidating mappings.
	ModeUpdate
	// ModeBroadcast is ModeUpdate plus eager cluster-wide replication;
	// it demotes itself to ModeInvalidate at the first write fault.
	ModeBroadcast
)

// String returns the mode's short name.
func (m PageMode) String() string {
	switch m {
	case ModeInvalidate:
		return "invalidate"
	case ModeUpdate:
		return "update"
	case ModeBroadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("PageMode(%d)", int32(m))
	}
}

// PolicyController is the adaptive policy engine's interface to the
// protocol (Config.Adaptive). The Note hooks are the in-run feedback
// path: they are called from the fault and flush paths, outside any
// node lock, possibly concurrently from every processor, and must not
// block or charge virtual time. DecideEpoch is called at every barrier
// by global processor 0 while all other processors are quiesced at the
// decision gate; transitions it applies through acts are charged to
// that processor and extend the barrier for everyone.
//
// Attaching any controller — even one that never acts — inserts the
// decision gate into every barrier. The gate adds no virtual time, but
// as a second rendezvous it changes which sibling processor happens to
// service a node's notice list first, so timings can shift slightly
// against the nil-controller baseline. Only Config.Adaptive == nil is
// the bit-identical baseline the golden tests pin.
type PolicyController interface {
	// NoteReadFault records a read fault on page by global processor
	// proc.
	NoteReadFault(page, proc int)
	// NoteWriteFault records a write fault on page by global processor
	// proc.
	NoteWriteFault(page, proc int)
	// NoteFlush records a release flush of changedWords modified words
	// of page by global processor proc.
	NoteFlush(page, proc, changedWords int)
	// DecideEpoch applies this epoch's policy transitions.
	DecideEpoch(epoch int, acts *PolicyActions)
}

// pageModeOf returns page's current coherence mode.
func (c *Cluster) pageModeOf(page int) PageMode {
	return PageMode(c.pageModes[page].Load())
}

// PolicyActions is the handle through which policy transitions are
// applied: by the engine's DecideEpoch at a decision epoch, or by the
// verification harness between modelcheck transitions. All costs are
// charged to the acting processor. It must not be used concurrently
// with running application code except from DecideEpoch.
type PolicyActions struct {
	c *Cluster
	p *Proc
}

// Pages returns the number of shared pages.
func (a *PolicyActions) Pages() int { return a.c.pages }

// Mode returns page's current coherence mode.
func (a *PolicyActions) Mode(page int) PageMode { return a.c.pageModeOf(page) }

// HomeNode returns the protocol node currently serving as page's home.
func (a *PolicyActions) HomeNode(page int) int {
	pn, _ := a.c.homeOf(page)
	return pn
}

// NodeOf returns the protocol node hosting global processor proc.
func (a *PolicyActions) NodeOf(proc int) int { return a.c.protoOfProc(proc) }

// SuperpageRange returns the page range [first, last) of page's
// superpage — the granularity at which MigrateHome moves homes. A
// migration decided for one page drags every sibling page's home along,
// so migration evidence must be aggregated over this whole range.
func (a *PolicyActions) SuperpageRange(page int) (first, last int) {
	sp := a.c.superOf(page)
	first = sp * a.c.cfg.SuperpagePages
	last = first + a.c.cfg.SuperpagePages
	if last > a.c.pages {
		last = a.c.pages
	}
	return first, last
}

// SetMode switches page to mode, charging one directory-word broadcast
// (the mode table is Memory-Channel-resident, like the directory).
// It reports whether the mode actually changed.
func (a *PolicyActions) SetMode(page int, mode PageMode) bool {
	c, p := a.c, a.p
	old := PageMode(c.pageModes[page].Swap(int32(mode)))
	if old == mode {
		return false
	}
	p.st.Inc(stats.PolicyModeChanges)
	p.chargeProtocol(c.model.DirectoryUpdate)
	p.st.Data(wordBytes)
	p.emit(trace.EvPolicyMode, page, int64(old), int64(mode))
	return true
}

// MigrateHome moves page's superpage home to proc's protocol node,
// reusing the first-touch republish machinery: the old home's aliases
// are dropped, and every node's directory word for every page of the
// superpage is republished so the recorded home processor agrees with
// the new assignment (the dir-agree/home-agree invariants). It refuses
// — returning false — when the home is already there or any page of
// the superpage is held in exclusive mode (exclusive pages are outside
// coherence; migrating under them would republish words the holder
// owns).
func (a *PolicyActions) MigrateHome(page, proc int) bool {
	return a.c.migrateHomePolicy(a.p, page, proc)
}

// Replicate pushes page's master copy to every node and maps it
// read-only for every processor (ModeBroadcast's entry action). Nodes
// with active local writers (a live twin) are left alone — their next
// fetch merges via the twin as usual — and a page held in exclusive
// mode is not replicated at all (returns false).
func (a *PolicyActions) Replicate(page int) bool {
	return a.c.replicatePage(a.p, page)
}

// refreshPage services a write notice for page in write-update mode:
// the frame is refreshed from the master copy in place — an incoming
// diff against the twin when one exists (preserving unreleased local
// writes, exactly as the refetch path does), a counted copy otherwise —
// and the mappings survive. Reports false when the node holds no frame
// (nothing to refresh; the caller falls back to invalidation
// bookkeeping). Called with p.n.mu held.
func (p *Proc) refreshPage(page int) bool {
	c := p.c
	n := p.n
	s := &n.pages[page]
	if s.aliased.Load() {
		return true // the master alias is never stale
	}
	if s.frame.Load() == nil {
		return false
	}
	changed := s.refresh(c, n, page)
	p.st.Inc(stats.PolicyUpdates)
	p.st.Inc(stats.IncomingDiffs)
	p.chargeProtocol(c.model.IncomingDiff(changed, c.cfg.PageWords))
	p.emit(trace.EvDiffIn, page, int64(changed), 1)
	return true
}

// maybeDemoteBroadcast demotes a broadcast page to write-invalidate at
// a write fault (the broadcast safety valve). The compare-and-swap
// makes the demotion race-free when two processors fault concurrently;
// with the policy layer idle the check is a single atomic load.
func (p *Proc) maybeDemoteBroadcast(page int) {
	c := p.c
	if c.pageModeOf(page) != ModeBroadcast {
		return
	}
	if !c.pageModes[page].CompareAndSwap(int32(ModeBroadcast), int32(ModeInvalidate)) {
		return
	}
	p.st.Inc(stats.PolicyModeChanges)
	p.chargeProtocol(c.model.DirectoryUpdate)
	p.st.Data(wordBytes)
	p.emit(trace.EvPolicyMode, page, int64(ModeBroadcast), int64(ModeInvalidate))
}

// migrateHomePolicy relocates page's superpage home to target's
// protocol node under the global home lock. Unlike first-touch
// relocation (which runs before any sharing exists), a policy
// migration happens mid-run, so after detaching the old home it
// republishes every node's directory word for every page of the
// superpage: the words record the home processor, and a stale record
// would break the dir-agree invariant the model checker enforces.
func (c *Cluster) migrateHomePolicy(p *Proc, page, target int) bool {
	sp := c.superOf(page)
	newProto := c.protoOfProc(target)

	held := c.homeLock.Acquire(p.clk.Now(), c.model.GlobalLock)
	p.chargeWait(held)

	oldProto, _, _ := decodeHome(c.homes[sp].Load())
	first := sp * c.cfg.SuperpagePages
	last := first + c.cfg.SuperpagePages
	if last > c.pages {
		last = c.pages
	}
	if oldProto == newProto {
		c.homeLock.Release(p.clk.Now())
		return false
	}
	for g := first; g < last; g++ {
		if _, _, ok := c.dir.ExclHolder(g); ok {
			c.homeLock.Release(p.clk.Now())
			return false
		}
	}

	c.migrateSuperpage(p, sp, oldProto)
	c.homes[sp].Store(encodeHome(newProto, target, true))

	// Republish every node's word with the new home processor,
	// preserving each node's recorded permission (no page of the
	// superpage is exclusive, checked above).
	for x := range c.nodes {
		nx := c.nodes[x]
		nx.mu.Lock()
		for g := first; g < last; g++ {
			w := c.dir.Load(x, g, x)
			nw := c.lay.Make(c.lay.Perm(w), -1, target, true)
			if nw != w {
				c.storeDirWord(p, x, g, nw)
			}
		}
		nx.mu.Unlock()
	}

	p.st.Inc(stats.HomeMigrations)
	p.emit(trace.EvHomeMigrate, page, int64(oldProto), int64(newProto))
	c.homeLock.Release(p.clk.Now())
	return true
}

// replicatePage pushes page's master copy to every node: private
// frames are refreshed (or allocated), every local processor with no
// mapping is mapped read-only, and the nodes' directory words are
// republished to cover the new mappings. One page transfer is charged
// — the Memory Channel broadcast delivers the data to every receive
// region in a single pass. Nodes with a live twin keep their private
// state (their writers merge through the twin as usual); a page in
// exclusive mode is not replicated.
func (c *Cluster) replicatePage(p *Proc, page int) bool {
	if _, _, ok := c.dir.ExclHolder(page); ok {
		return false
	}
	homeProto, hproc := c.homeOf(page)
	_, _, done := decodeHome(c.homes[c.superOf(page)].Load())
	if !done && c.initFlag.Load() {
		// Replication maps the page everywhere, so it must count as the
		// superpage's first touch: pin the home where it is before
		// publishing words that record it. Otherwise a later first
		// touch would migrate the home out from under every directory
		// word the broadcast just wrote.
		sp := c.superOf(page)
		held := c.homeLock.Acquire(p.clk.Now(), c.model.GlobalLock)
		p.chargeWait(held)
		if pr, pp, d := decodeHome(c.homes[sp].Load()); !d {
			c.homes[sp].Store(encodeHome(pr, pp, true))
		}
		c.homeLock.Release(p.clk.Now())
		homeProto, hproc = c.homeOf(page)
		done = true
	}

	pageBytes := int64(c.cfg.PageWords) * wordBytes
	p.st.Inc(stats.PageTransfers)
	p.st.Data(pageBytes)
	p.chargeProtocol(c.model.PageTransfer(false, c.cfg.Protocol.TwoLevelFamily()))
	arrival := c.net.Transfer(c.physOfProto(homeProto), pageBytes, p.clk.Now())
	p.chargeWait(arrival)

	touched := 0
	for x := range c.nodes {
		n := c.nodes[x]
		n.mu.Lock()
		s := &n.pages[page]
		aliased := s.aliased.Load()
		if !aliased && s.twin != nil {
			n.mu.Unlock()
			continue // active local writers: leave the private frame alone
		}
		if !aliased {
			s.refresh(c, n, page)
		}
		mapped := false
		for l := 0; l < n.vm.Procs(); l++ {
			if n.vm.Proc(l).Get(page) == directory.Invalid {
				n.vm.Proc(l).Set(page, directory.ReadOnly)
				mapped = true
			}
		}
		if aliased && mapped {
			s.updateTS = n.lclock.Tick() // the alias is current; stamp the new mappings
		}
		if !aliased || mapped {
			p.chargeProtocol(c.model.MProtect)
			touched++
		}
		if mapped {
			w := c.lay.Make(n.vm.Loosest(page), -1, hproc, done)
			if w != c.dir.Load(x, page, x) {
				c.storeDirWord(p, x, page, w)
			}
		}
		n.mu.Unlock()
	}
	if touched == 0 {
		return false
	}
	p.st.Inc(stats.PolicyReplications)
	p.emit(trace.EvPolicyReplicate, page, int64(touched), 0)
	return true
}

// decidePolicyEpoch runs the adaptive engine's decision epoch from the
// barrier: global processor 0 decides while every other processor is
// parked between the barrier rendezvous and the decision gate, then the
// gate releases everyone at the decider's post-decision time — the
// decision work extends the barrier for all, exactly like a longer
// barrier episode. Called from Barrier, only when Config.Adaptive is
// set.
func (p *Proc) decidePolicyEpoch() {
	c := p.c
	if p.global == 0 {
		c.policyEpoch++
		c.cfg.Adaptive.DecideEpoch(c.policyEpoch, &PolicyActions{c: c, p: p})
	}
	p.chargeWait(c.decideBar.Wait(p.clk.Now()))
}
