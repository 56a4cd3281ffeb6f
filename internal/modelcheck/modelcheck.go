// Package modelcheck is a small-model checker for the Cashmere
// coherence protocols. It drives the real protocol engine
// (internal/core and the packages under it) — not a re-implementation —
// through interleavings of its atomic transitions, checking a catalog
// of safety invariants after every step.
//
// # Approach
//
// Every protocol transition (fault service, release flush, acquire
// drain, exclusive break, barrier arrival/departure) runs to completion
// under the owning node's mutex, so a schedule of transitions executed
// one at a time from a single goroutine explores exactly the
// protocol-level interleavings, deterministically. Explore enumerates
// every schedule up to a depth bound over a small model (by default
// 2 nodes x 2 processors x 2 pages); Fuzz samples long random
// schedules; RunSchedule executes a scripted interleaving (the way to
// reach states deeper than the exhaustive bound). Any invariant
// violation is reported as a Counterexample: a replayable schedule plus
// the violated invariant, serializable to JSON for `cashmere-run
// -replay`.
//
// # Invariant catalog
//
// After every step the checker asserts (names as reported in
// Violation.Invariant):
//
//   - map-implies-frame: wherever a local page table grants access to
//     a page, its node holds a frame of it (the invariant core's page
//     record keeps: installs publish the frame before access is granted,
//     and a drop revokes every local table before it empties the slot).
//   - exclusive-sole: a page in exclusive mode has exactly one holder
//     node; every other node's directory word and page tables show
//     Invalid (paper Section 2.4.1 — exclusive pages are outside the
//     coherence protocol precisely because nobody else has a copy), and
//     the holder keeps no twin (exclusive pages are not diffed; a twin
//     surviving into exclusive mode goes stale and later reflushes
//     exclusive-era data over newer remote writes).
//   - twin-stale: wherever a frame differs from its twin, the
//     difference is an unreleased local write (Section 2.5: the twin
//     always equals the node's last flushed state, which is what makes
//     outgoing and incoming diffs identify exactly the local and remote
//     modifications). A divergence with nothing pending means the twin
//     missed a flush and the next release will push stale data home.
//   - lost-write: a word written locally and not yet flushed to the
//     home ("pending") must remain visible in the writing node's frame
//     until the protocol flushes it. The oracle gives every write a
//     unique value and observes the master copy to learn when a write
//     has been flushed; a pending value that disappears from the frame
//     was destroyed by a merge (Section 2.5's two-way diffing exists to
//     make exactly this impossible).
//   - dir-agree: each node's directory word permission is at least as
//     loose as the loosest page-table permission on that node (the word
//     is the first-level directory's summary of the second level), and
//     the home processor a word records lies on the page's home node.
//   - notice-conservation: a node's globally-accessible write-notice
//     list only grows, except across that node's own acquire, which
//     must leave it empty (notices are never dropped); after an acquire
//     the acquiring processor's second-level list is empty.
//   - vt-monotone: virtual time never moves backwards, and a step by
//     one processor never moves another processor's clock (barrier
//     departures, which are charged a rendezvous release time, step
//     every clock and are checked for monotonicity only).
//   - barrier-converged: immediately after a full barrier, every node
//     frame backed by a valid mapping is word-identical to the master
//     copy, no write notices (global or per-processor) are pending
//     anywhere, and no write is still pending except on a page its
//     node holds in exclusive mode.
//   - read-value: a shared read returns zero or a value some processor
//     actually wrote to that word (catches cross-word or cross-page
//     smearing).
//
// With Options.PolicyOps, the adaptive policy engine's transitions
// (internal/policy) join the alphabet and two more invariants apply:
//
//   - policy-atomic: a broadcast promotion that acts leaves the whole
//     transition applied within its step — mode table, replicated
//     frames, and read-only mappings all consistent; no schedule can
//     observe a half-applied transition.
//   - home-agree: a home migration that acts lands the home on the
//     acting processor's node, and (via dir-agree's home check, which
//     runs continuously) every node's directory word records the new
//     home processor.
//
// See docs/MODELCHECK.md for the state space and workflow.
package modelcheck

import (
	"fmt"
	"sort"

	"cashmere/internal/core"
	"cashmere/internal/directory"
	"cashmere/internal/trace"
)

// OpKind enumerates the schedulable protocol transitions.
type OpKind int

const (
	// OpRead is a shared read of one word; services a read fault
	// (fetch, refetch, exclusive break) if the mapping is missing.
	OpRead OpKind = iota
	// OpWrite is a shared write of one word; services a write fault
	// (twinning, exclusive entry) if write permission is missing.
	OpWrite
	// OpRelease performs release-side consistency actions: flush dirty
	// and no-longer-exclusive pages, send write notices.
	OpRelease
	// OpAcquire performs acquire-side consistency actions: drain the
	// node's write-notice list and invalidate stale mappings.
	OpAcquire
	// OpBarrier is a barrier arrival. When the last processor arrives,
	// the departure half runs for every processor (in processor order)
	// within the same step, releasing them at the rendezvous time the
	// blocking barrier would compute.
	OpBarrier
	// OpBreak sends an explicit request breaking the page out of
	// exclusive mode held by another node, without the subsequent
	// map-in a fault would perform.
	OpBreak
	// OpModeInvalidate switches the page's adaptive coherence mode to
	// write-invalidate (the baseline), as the policy engine's demotion
	// transition would. New kinds append after OpBreak so recorded
	// counterexample JSON keeps its meaning.
	OpModeInvalidate
	// OpModeUpdate switches the page to write-update mode: subsequent
	// acquires service the page's write notices by refreshing the frame
	// in place instead of invalidating.
	OpModeUpdate
	// OpBroadcast switches the page to broadcast mode and, if the mode
	// changed, immediately replicates the master copy to every node —
	// the two halves of the engine's broadcast promotion, in one
	// schedule step because the engine applies them back to back inside
	// a decision epoch.
	OpBroadcast
	// OpMigrateHome migrates the page's (superpage's) home to the
	// acting processor's protocol node, the engine's home-migration
	// transition.
	OpMigrateHome
)

var opKindNames = map[OpKind]string{
	OpRead:           "read",
	OpWrite:          "write",
	OpRelease:        "release",
	OpAcquire:        "acquire",
	OpBarrier:        "barrier",
	OpBreak:          "break",
	OpModeInvalidate: "mode-invalidate",
	OpModeUpdate:     "mode-update",
	OpBroadcast:      "broadcast",
	OpMigrateHome:    "migrate-home",
}

// isPolicyOp reports whether k is one of the adaptive-policy
// transitions (enabled only under Options.PolicyOps).
func isPolicyOp(k OpKind) bool {
	return k == OpModeInvalidate || k == OpModeUpdate ||
		k == OpBroadcast || k == OpMigrateHome
}

// String returns the op kind's schedule name.
func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one step of a schedule: a protocol transition performed by one
// processor. Page and Word are used by OpRead, OpWrite, and OpBreak
// (Word by the accesses only).
type Op struct {
	Proc int    `json:"proc"`
	Kind OpKind `json:"kind"`
	Page int    `json:"page,omitempty"`
	Word int    `json:"word,omitempty"`
}

// String renders the op the way schedules print it.
func (o Op) String() string {
	switch o.Kind {
	case OpRead, OpWrite:
		return fmt.Sprintf("p%d:%s(page%d,w%d)", o.Proc, o.Kind, o.Page, o.Word)
	case OpBreak, OpModeInvalidate, OpModeUpdate, OpBroadcast, OpMigrateHome:
		return fmt.Sprintf("p%d:%s(page%d)", o.Proc, o.Kind, o.Page)
	default:
		return fmt.Sprintf("p%d:%s", o.Proc, o.Kind)
	}
}

// Options describes the model: the cluster shape and protocol variant
// to check, and the width of the operation alphabet.
type Options struct {
	// Nodes, ProcsPerNode, Pages, PageWords give the small model's
	// shape. Zero values default to the canonical 2 x 2 x 2 pages x 8
	// words model.
	Nodes        int `json:"nodes,omitempty"`
	ProcsPerNode int `json:"procsPerNode,omitempty"`
	Pages        int `json:"pages,omitempty"`
	PageWords    int `json:"pageWords,omitempty"`

	// Protocol selects the protocol variant (core.TwoLevel by
	// default).
	Protocol core.Kind `json:"protocol,omitempty"`

	// Defect names a historical protocol defect to re-introduce
	// (core.Harness.InjectDefect): "keep-exclusive-twin",
	// "drop-stale-map-notice", "skip-exclusive-republish",
	// "stale-exclusive-entry" or "incoming-clobber". Empty checks the
	// protocol as built. Recording it here makes a counterexample of a
	// defect replay as one.
	Defect string `json:"defect,omitempty"`

	// LockBasedMeta checks the globally-locked metadata ablation.
	LockBasedMeta bool `json:"lockBasedMeta,omitempty"`

	// FirstTouch enables first-touch home relocation from the first
	// step (EndInit's effect), covering the home-migration paths.
	FirstTouch bool `json:"firstTouch,omitempty"`

	// Words bounds the per-page word range the generated alphabet
	// writes (default 1: all generated writes target word 0, which
	// maximizes write-write conflict coverage per unit of depth).
	// Scripted schedules may address any word regardless.
	Words int `json:"words,omitempty"`

	// PolicyOps adds the adaptive-policy transitions to the generated
	// alphabet: per-page mode flips and broadcast replication by
	// processor 0 (the engine's decider), and home migration by any
	// processor hosted away from the page's home. Mode flips are
	// restricted to the decider, as in the engine, to bound branching.
	// Scripted schedules may use the policy op kinds regardless.
	PolicyOps bool `json:"policyOps,omitempty"`
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 2
	}
	if o.ProcsPerNode == 0 {
		o.ProcsPerNode = 2
	}
	if o.Pages == 0 {
		o.Pages = 2
	}
	if o.PageWords == 0 {
		o.PageWords = 8
	}
	if o.Words == 0 {
		o.Words = 1
	}
	return o
}

// Violation describes one invariant failure.
type Violation struct {
	// Invariant is the catalog name (see the package comment).
	Invariant string `json:"invariant"`
	// Step is the index of the schedule op after which the invariant
	// failed.
	Step int `json:"step"`
	// Detail is a human-readable account of the failing state.
	Detail string `json:"detail"`
}

func (v *Violation) String() string {
	return fmt.Sprintf("invariant %q violated after step %d: %s", v.Invariant, v.Step, v.Detail)
}

// pwrite tracks one write in the oracle: its unique value and whether
// it is still "live" — issued, not yet overwritten by a later local
// write, and not yet observed flushed to the master copy. A live write
// must be visible in the writing node's frame.
type pwrite struct {
	val  int64
	live bool
}

// run is one schedule execution against a live cluster, with the
// write-history oracle and the invariant state trailing it.
type run struct {
	opts   Options
	c      *core.Cluster
	h      *core.Harness
	tracer *trace.Tracer

	nprocs, nnodes, pages, words int
	nodeOf                       []int // proc -> protocol node

	step int
	seq  int64 // next unique write value

	// pending[node][page][word] is the latest local write.
	pending [][][]pwrite
	// wordOf maps a write value to its page*pageWords+word, for the
	// read-value invariant.
	wordOf map[int64]int

	// Barrier rendezvous state.
	arrived   []bool
	arriveClk []int64

	// Previous-step snapshots for the delta invariants.
	prevClk   []int64
	prevQueue [][]int
	prevExcl  []int // exclusive holder node per page, -1 if none
}

// newRun builds a fresh cluster for opts. A non-nil tracer is attached
// for counterexample replay output.
func newRun(opts Options, tracer *trace.Tracer) (*run, error) {
	opts = opts.withDefaults()
	cfg := core.Config{
		Nodes:          opts.Nodes,
		ProcsPerNode:   opts.ProcsPerNode,
		Protocol:       opts.Protocol,
		LockBasedMeta:  opts.LockBasedMeta,
		PageWords:      opts.PageWords,
		SharedWords:    opts.Pages * opts.PageWords,
		SuperpagePages: 1,
		Trace:          tracer,
	}
	c, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	h := c.Harness()
	if opts.Defect != "" {
		if err := h.InjectDefect(opts.Defect); err != nil {
			return nil, err
		}
	}
	if opts.FirstTouch {
		h.SetFirstTouch(true)
	}
	r := &run{
		opts:   opts,
		c:      c,
		h:      h,
		tracer: tracer,
		nprocs: c.NumProcs(),
		nnodes: h.ProtoNodes(),
		pages:  c.Pages(),
		words:  cfg.PageWords,
		seq:    1,
		wordOf: make(map[int64]int),
	}
	r.nodeOf = make([]int, r.nprocs)
	for p := range r.nodeOf {
		r.nodeOf[p] = h.ProtoNodeOf(p)
	}
	r.pending = make([][][]pwrite, r.nnodes)
	for x := range r.pending {
		r.pending[x] = make([][]pwrite, r.pages)
		for g := range r.pending[x] {
			r.pending[x][g] = make([]pwrite, r.words)
		}
	}
	r.arrived = make([]bool, r.nprocs)
	r.arriveClk = make([]int64, r.nprocs)
	r.prevClk = make([]int64, r.nprocs)
	r.prevQueue = make([][]int, r.nnodes)
	r.prevExcl = make([]int, r.pages)
	for g := range r.prevExcl {
		r.prevExcl[g] = -1
	}
	return r, nil
}

// exclHolder returns the node holding page exclusively per the
// directory, or -1.
func (r *run) exclHolder(page int) int {
	if x, _, ok := r.h.Directory().ExclHolder(page); ok {
		return x
	}
	return -1
}

// enabled returns the ops schedulable from the current state. Generated
// accesses target words [0, opts.Words); processors that have arrived
// at the barrier have no enabled ops until the rendezvous completes.
func (r *run) enabled() []Op {
	var ops []Op
	for p := 0; p < r.nprocs; p++ {
		if r.arrived[p] {
			continue
		}
		for g := 0; g < r.pages; g++ {
			ops = append(ops, Op{Proc: p, Kind: OpRead, Page: g})
			for w := 0; w < r.opts.Words; w++ {
				ops = append(ops, Op{Proc: p, Kind: OpWrite, Page: g, Word: w})
			}
			if x := r.exclHolder(g); x >= 0 && x != r.nodeOf[p] {
				ops = append(ops, Op{Proc: p, Kind: OpBreak, Page: g})
			}
			if r.opts.PolicyOps {
				if p == 0 {
					switch r.h.PageMode(g) {
					case core.ModeInvalidate:
						ops = append(ops,
							Op{Proc: p, Kind: OpModeUpdate, Page: g},
							Op{Proc: p, Kind: OpBroadcast, Page: g})
					case core.ModeUpdate:
						ops = append(ops,
							Op{Proc: p, Kind: OpModeInvalidate, Page: g},
							Op{Proc: p, Kind: OpBroadcast, Page: g})
					case core.ModeBroadcast:
						ops = append(ops,
							Op{Proc: p, Kind: OpModeInvalidate, Page: g},
							Op{Proc: p, Kind: OpModeUpdate, Page: g})
					}
				}
				if r.nodeOf[p] != r.h.HomeOf(g) {
					ops = append(ops, Op{Proc: p, Kind: OpMigrateHome, Page: g})
				}
			}
		}
		ops = append(ops,
			Op{Proc: p, Kind: OpRelease},
			Op{Proc: p, Kind: OpAcquire},
			Op{Proc: p, Kind: OpBarrier})
	}
	return ops
}

// snapshotPre records the state the delta invariants compare against.
func (r *run) snapshotPre() {
	for p := 0; p < r.nprocs; p++ {
		r.prevClk[p] = r.h.Clock(p)
	}
	for x := 0; x < r.nnodes; x++ {
		r.prevQueue[x] = r.h.QueuedNotices(x)
	}
	for g := 0; g < r.pages; g++ {
		r.prevExcl[g] = r.exclHolder(g)
	}
}

// apply executes one schedule op (plus, for the last barrier arrival,
// the departure half for every processor), updates the oracle, and
// checks every invariant. It returns the first violation found, or nil.
func (r *run) apply(op Op) *Violation {
	if op.Proc < 0 || op.Proc >= r.nprocs {
		return &Violation{Invariant: "schedule", Step: r.step,
			Detail: fmt.Sprintf("op %s: no such processor", op)}
	}
	if (op.Kind == OpRead || op.Kind == OpWrite || op.Kind == OpBreak || isPolicyOp(op.Kind)) &&
		(op.Page < 0 || op.Page >= r.pages || op.Word < 0 || op.Word >= r.words) {
		return &Violation{Invariant: "schedule", Step: r.step,
			Detail: fmt.Sprintf("op %s: page/word out of range", op)}
	}
	r.snapshotPre()

	drained := make([]bool, r.nnodes) // nodes whose gwn a drain emptied
	barrierDone := false
	policyActed := false // a policy op performed its transition
	var readVal int64
	hasRead := false

	if r.arrived[op.Proc] {
		// A minimized or hand-written schedule may address an arrived
		// processor; the rendezvous makes that a no-op rather than an
		// error so minimization can delete arrivals freely.
	} else {
		switch op.Kind {
		case OpRead:
			readVal = r.h.Read(op.Proc, op.Page*r.words+op.Word)
			hasRead = true
		case OpWrite:
			v := r.seq
			r.seq++
			x := r.nodeOf[op.Proc]
			r.pending[x][op.Page][op.Word] = pwrite{val: v, live: true}
			r.wordOf[v] = op.Page*r.words + op.Word
			r.h.Write(op.Proc, op.Page*r.words+op.Word, v)
		case OpRelease:
			r.h.Release(op.Proc)
		case OpAcquire:
			r.h.Acquire(op.Proc)
			drained[r.nodeOf[op.Proc]] = true
		case OpBreak:
			r.h.BreakExclusive(op.Proc, op.Page)
		case OpModeInvalidate:
			policyActed = r.h.SetPageMode(op.Proc, op.Page, core.ModeInvalidate)
		case OpModeUpdate:
			policyActed = r.h.SetPageMode(op.Proc, op.Page, core.ModeUpdate)
		case OpBroadcast:
			if r.h.SetPageMode(op.Proc, op.Page, core.ModeBroadcast) {
				policyActed = r.h.Replicate(op.Proc, op.Page)
			}
		case OpMigrateHome:
			policyActed = r.h.MigrateHomeTo(op.Proc, op.Page)
		case OpBarrier:
			r.h.BarrierArrive(op.Proc)
			r.arrived[op.Proc] = true
			r.arriveClk[op.Proc] = r.h.Clock(op.Proc)
			all := true
			for p := 0; p < r.nprocs; p++ {
				all = all && r.arrived[p]
			}
			if all {
				release := int64(0)
				for p := 0; p < r.nprocs; p++ {
					if r.arriveClk[p] > release {
						release = r.arriveClk[p]
					}
				}
				release += r.h.BarrierCost()
				for p := 0; p < r.nprocs; p++ {
					r.h.BarrierDepart(p, release)
					r.arrived[p] = false
					drained[r.nodeOf[p]] = true
				}
				barrierDone = true
			}
		default:
			return &Violation{Invariant: "schedule", Step: r.step,
				Detail: fmt.Sprintf("op %s: unknown kind", op)}
		}
	}

	v := r.check(op, drained, barrierDone, policyActed, hasRead, readVal)
	r.step++
	return v
}

// settleOracle reconciles the write oracle with the post-step state:
// writes observed in the master copy have been flushed, and an
// exclusive break flushes the ex-holder's whole frame (even if a later
// action in the same step overwrote the master again).
func (r *run) settleOracle() {
	for g := 0; g < r.pages; g++ {
		if x := r.prevExcl[g]; x >= 0 && r.exclHolder(g) != x {
			for w := range r.pending[x][g] {
				r.pending[x][g][w].live = false
			}
		}
		m := r.h.Master(g)
		for w := 0; w < r.words; w++ {
			for x := 0; x < r.nnodes; x++ {
				pw := &r.pending[x][g][w]
				if pw.live && pw.val == m[w] {
					pw.live = false
				}
			}
		}
	}
}

// check runs the invariant catalog after a step.
func (r *run) check(op Op, drained []bool, barrierDone, policyActed, hasRead bool, readVal int64) *Violation {
	r.settleOracle()
	fail := func(inv, format string, args ...any) *Violation {
		return &Violation{Invariant: inv, Step: r.step,
			Detail: fmt.Sprintf("after %s: ", op) + fmt.Sprintf(format, args...)}
	}

	// policy-atomic: a broadcast promotion that acted must leave the
	// whole transition applied in one step — the mode table says
	// broadcast, and every node that was eligible for replication (no
	// live twin guarding local writes) holds a master-identical frame
	// with every local processor mapped at least read-only.
	if op.Kind == OpBroadcast && policyActed {
		if m := r.h.PageMode(op.Page); m != core.ModeBroadcast {
			return fail("policy-atomic", "page %d mode is %s after an acting broadcast op", op.Page, m)
		}
		master := r.h.Master(op.Page)
		for x := 0; x < r.nnodes; x++ {
			st := r.h.PageState(x, op.Page)
			if st.HasTwin && !st.Aliased {
				continue // replication leaves twin-guarded frames alone
			}
			if !st.HasFrame {
				return fail("policy-atomic", "page %d node %d has no frame after replication", op.Page, x)
			}
			for w := 0; w < r.words; w++ {
				if st.Frame[w] != master[w] {
					return fail("policy-atomic", "page %d word %d: node %d frame has %d, master %d after replication",
						op.Page, w, x, st.Frame[w], master[w])
				}
			}
			for l, perm := range st.Perms {
				if perm == directory.Invalid {
					return fail("policy-atomic", "page %d node %d local proc %d still unmapped after replication",
						op.Page, x, l)
				}
			}
		}
	}

	// home-agree: a home migration that acted must land the home on the
	// acting processor's node (the continuous dir-agree check below
	// separately holds every node's directory word to the new record).
	if op.Kind == OpMigrateHome && policyActed {
		if home, want := r.h.HomeOf(op.Page), r.nodeOf[op.Proc]; home != want {
			return fail("home-agree", "page %d home is node %d after migration toward proc %d (node %d)",
				op.Page, home, op.Proc, want)
		}
	}

	// read-value: reads return zero or a value written to that word.
	if hasRead && readVal != 0 {
		want := op.Page*r.words + op.Word
		got, ok := r.wordOf[readVal]
		if !ok || got != want {
			return fail("read-value", "read of page %d word %d returned %d, which was never written there",
				op.Page, op.Word, readVal)
		}
	}

	// vt-monotone.
	for p := 0; p < r.nprocs; p++ {
		clk := r.h.Clock(p)
		if clk < r.prevClk[p] {
			return fail("vt-monotone", "proc %d clock moved backwards: %d -> %d", p, r.prevClk[p], clk)
		}
		if !barrierDone && p != op.Proc && clk != r.prevClk[p] {
			return fail("vt-monotone", "step by proc %d moved proc %d's clock: %d -> %d",
				op.Proc, p, r.prevClk[p], clk)
		}
	}

	// notice-conservation.
	for x := 0; x < r.nnodes; x++ {
		queue := r.h.QueuedNotices(x)
		if drained[x] {
			if len(queue) != 0 {
				return fail("notice-conservation", "node %d notice list not empty after its acquire: %v", x, queue)
			}
			continue
		}
		if !multisetContains(queue, r.prevQueue[x]) {
			return fail("notice-conservation", "node %d lost posted notices without an acquire: had %v, now %v",
				x, r.prevQueue[x], queue)
		}
	}
	if op.Kind == OpAcquire && !r.arrived[op.Proc] {
		if n := r.h.ProcNotices(op.Proc); n != 0 {
			return fail("notice-conservation", "proc %d second-level list has %d notices after its acquire", op.Proc, n)
		}
	}

	lay := r.h.Layout()
	for g := 0; g < r.pages; g++ {
		master := r.h.Master(g)
		excl := -1
		states := make([]core.PageState, r.nnodes)
		for x := 0; x < r.nnodes; x++ {
			states[x] = r.h.PageState(x, g)
			if _, ok := lay.Excl(states[x].OwnWord); ok {
				if excl >= 0 {
					return fail("exclusive-sole", "page %d exclusive on nodes %d and %d", g, excl, x)
				}
				excl = x
			}
		}

		for x := 0; x < r.nnodes; x++ {
			st := states[x]
			loosest := directory.Invalid
			for _, p := range st.Perms {
				if p > loosest {
					loosest = p
				}
			}

			// map-implies-frame: a table that grants access has a frame
			// behind it.
			if loosest != directory.Invalid && !st.HasFrame {
				return fail("map-implies-frame", "page %d node %d maps the page %s but holds no frame",
					g, x, loosest)
			}

			// exclusive-sole: the holder runs without a twin, and other
			// nodes have no valid view.
			if excl == x && st.HasTwin {
				return fail("exclusive-sole", "page %d exclusive on node %d, which still holds a twin", g, x)
			}
			if excl >= 0 && x != excl {
				if lay.Perm(st.OwnWord) != directory.Invalid {
					return fail("exclusive-sole", "page %d exclusive on node %d but node %d's word is %s",
						g, excl, x, lay.Format(st.OwnWord))
				}
				if loosest != directory.Invalid {
					return fail("exclusive-sole", "page %d exclusive on node %d but node %d maps it %s",
						g, excl, x, loosest)
				}
			}

			// dir-agree: the word's permission is at least as loose as
			// the node's page tables, and its home is the page's.
			if lay.Perm(st.OwnWord) < loosest {
				return fail("dir-agree", "page %d node %d word says %s but a local table says %s",
					g, x, lay.Perm(st.OwnWord), loosest)
			}
			if hp, ok := lay.Home(st.OwnWord); ok {
				if home := r.h.ProtoNodeOf(hp); home != r.h.HomeOf(g) {
					return fail("dir-agree", "page %d node %d word records home proc %d (node %d), actual home node %d",
						g, x, hp, home, r.h.HomeOf(g))
				}
			}

			// lost-write: live pending writes are visible in the frame.
			for w := 0; w < r.words; w++ {
				pw := r.pending[x][g][w]
				if !pw.live {
					continue
				}
				if !st.HasFrame {
					return fail("lost-write", "page %d word %d: node %d has pending write %d but no frame",
						g, w, x, pw.val)
				}
				if st.Frame[w] != pw.val {
					return fail("lost-write", "page %d word %d: node %d's pending write %d vanished from the frame (frame has %d, master %d)",
						g, w, x, pw.val, st.Frame[w], master[w])
				}
				if barrierDone && excl != x {
					return fail("barrier-converged", "page %d word %d: node %d still has unflushed write %d after a full barrier",
						g, w, x, pw.val)
				}
			}

			// twin-stale: frame-vs-twin divergence must be an
			// unreleased local write.
			if st.HasTwin {
				for w := 0; w < r.words; w++ {
					if st.Frame[w] == st.Twin[w] {
						continue
					}
					pw := r.pending[x][g][w]
					if !pw.live || pw.val != st.Frame[w] {
						return fail("twin-stale", "page %d word %d: node %d frame has %d but twin has %d with no unreleased local write to explain it",
							g, w, x, st.Frame[w], st.Twin[w])
					}
				}
			}

			// barrier-converged: valid mappings see the master copy.
			if barrierDone && excl < 0 && loosest != directory.Invalid && st.HasFrame {
				for w := 0; w < r.words; w++ {
					if st.Frame[w] != master[w] {
						return fail("barrier-converged", "page %d word %d: node %d maps the page %s but frame has %d, master %d",
							g, w, x, loosest, st.Frame[w], master[w])
					}
				}
			}
		}
	}

	if barrierDone {
		for x := 0; x < r.nnodes; x++ {
			if n := r.h.PendingNotices(x); n != 0 {
				return fail("barrier-converged", "node %d has %d undrained notices after a full barrier", x, n)
			}
		}
		for p := 0; p < r.nprocs; p++ {
			if n := r.h.ProcNotices(p); n != 0 {
				return fail("barrier-converged", "proc %d has %d pending second-level notices after a full barrier", p, n)
			}
		}
	}
	return nil
}

// multisetContains reports whether every element of want appears in got
// at least as many times.
func multisetContains(got, want []int) bool {
	if len(want) == 0 {
		return true
	}
	g := append([]int(nil), got...)
	w := append([]int(nil), want...)
	sort.Ints(g)
	sort.Ints(w)
	i := 0
	for _, v := range w {
		for i < len(g) && g[i] < v {
			i++
		}
		if i >= len(g) || g[i] != v {
			return false
		}
		i++
	}
	return true
}
