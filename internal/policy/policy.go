// Package policy implements the adaptive per-page coherence policy
// engine: an online controller that watches the protocol's fault and
// flush streams and, at barrier decision epochs, switches individual
// pages between write-invalidate (the paper's baseline), write-update,
// and broadcast replication, and migrates page homes toward their
// dominant writer.
//
// The engine reuses the offline profiler's sharing-pattern taxonomy
// (metrics.ClassifySharing) on counters it accumulates in-run, so the
// page a -profile report labels "producer-consumer" is the same page
// the engine moves to write-update. Decisions are made from
// order-independent aggregates only — per-page sums, per-processor
// bitmasks, and sole-owner cells — so a run with -adaptive is exactly
// as deterministic as one without.
//
// The decision rules, their hysteresis, and the mode state machines
// are documented in docs/ADAPTIVE.md.
package policy

import (
	"math/bits"

	"cashmere/internal/core"
	"cashmere/internal/metrics"
)

// Config holds the engine's thresholds. The zero value is usable;
// Defaults() fills unset fields.
type Config struct {
	// MinSamples is the evidence gate: no decision is taken for a page
	// until at least this many classification-relevant events (faults
	// plus flushes) have been observed for it, mirroring the profiler's
	// low-confidence marker (metrics.LowConfidenceSamples).
	MinSamples int

	// HoldEpochs is the hysteresis window: a promotion signal (refetch
	// churn for write-update, a stable remote flusher for home
	// migration) must persist for this many consecutive decision epochs
	// before the engine acts on it.
	HoldEpochs int

	// ProbeEpochs bounds how long a page may sit in write-update mode
	// without fresh read evidence. Update mode suppresses the read
	// faults the engine's churn signal is built from, so a page whose
	// readers have moved on would otherwise be refreshed forever; after
	// ProbeEpochs of writes with no read faults the page is demoted to
	// write-invalidate to re-sample read interest. A page with live
	// readers re-promotes within a hold window.
	ProbeEpochs int
}

// Defaults returns the documented default thresholds.
func Defaults() Config {
	return Config{
		MinSamples:  metrics.LowConfidenceSamples,
		HoldEpochs:  2,
		ProbeEpochs: 8,
	}
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.MinSamples <= 0 {
		c.MinSamples = d.MinSamples
	}
	if c.HoldEpochs <= 0 {
		c.HoldEpochs = d.HoldEpochs
	}
	if c.ProbeEpochs <= 0 {
		c.ProbeEpochs = 4 * c.HoldEpochs
	}
	return c
}

// soleMulti is the absorbing state of a sole-owner cell, which holds 0
// while no processor has been observed, proc+1 after exactly one, and
// soleMulti forever after a second distinct processor. The final state depends on
// which processors were observed, never on their order — the property
// that keeps decisions deterministic.
const soleMulti = int64(-1)

func noteSole(cell *int64, proc int) {
	switch id := int64(proc) + 1; *cell {
	case 0:
		*cell = id
	case id, soleMulti:
	default:
		*cell = soleMulti
	}
}

func orMask(cell *uint64, proc int) { *cell |= 1 << (uint(proc) % 64) }

// pageStats is one page's accumulator, updated by the faulting or
// flushing processor. Counters are cumulative over the run; the decision
// loop forms per-epoch deltas against its private lastXX copies.
type pageStats struct {
	readFaults  int64
	writeFaults int64
	flushes     int64

	// readersMask / writersMask record distinct faulting processors
	// (folded mod 64; popcounts are exact for clusters of up to 64
	// processors and conservative undercounts beyond).
	readersMask uint64
	writersMask uint64

	// soleWriter / soleFlusher record the single processor that writes
	// / flushes the page, or soleMulti once two have.
	soleWriter  int64
	soleFlusher int64
}

// pageDecision is one page's decision-loop state. Only global processor
// 0 touches it, from DecideEpoch. The migration streak lives on the
// first page of each superpage — homes move at superpage granularity,
// so that is the decision's granularity.
type pageDecision struct {
	lastRF, lastWF, lastFlush int64 // cumulative counters at last epoch
	dFl                       int64 // this epoch's flush delta (set each epoch)
	prevRead, prevWrite       bool  // previous epoch had read faults / writes

	updStreak   int    // consecutive epochs of refetch-churn evidence
	updNoRead   int    // epochs in update mode with writes but no read faults
	quietEpochs int    // consecutive epochs with no write or flush on the page
	migStreak   int    // consecutive epochs of stable-remote-flusher evidence
	migTarget   int    // the flusher the migration streak is tracking
	replicated  bool   // broadcast replication already applied once
	pattern     string // profiler-taxonomy label as of the last epoch
}

// Engine is the adaptive policy controller. Create one with New, attach
// it with Wire (or set core.Config.Adaptive and call Attach from the
// Observer hook yourself), one Engine per cluster.
type Engine struct {
	cfg   Config
	stats []pageStats
	dec   []pageDecision
}

// New returns an engine with cfg's thresholds (zero fields defaulted).
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// Attach sizes the engine's tables for cluster c. It must run after the
// cluster is constructed and before Run — the core.Config.Observer hook
// is the intended call site (Wire arranges this).
func (e *Engine) Attach(c *core.Cluster) {
	e.stats = make([]pageStats, c.Pages())
	e.dec = make([]pageDecision, c.Pages())
}

// Wire installs a new engine on cc: it sets cc.Adaptive and chains an
// Observer that attaches the engine to the constructed cluster before
// any previously-installed observer runs.
func Wire(cc *core.Config, cfg Config) *Engine {
	e := New(cfg)
	cc.Adaptive = e
	prev := cc.Observer
	cc.Observer = func(c *core.Cluster) {
		e.Attach(c)
		if prev != nil {
			prev(c)
		}
	}
	return e
}

// NoteReadFault implements core.PolicyController.
func (e *Engine) NoteReadFault(page, proc int) {
	st := &e.stats[page]
	st.readFaults++
	orMask(&st.readersMask, proc)
}

// NoteWriteFault implements core.PolicyController.
func (e *Engine) NoteWriteFault(page, proc int) {
	st := &e.stats[page]
	st.writeFaults++
	orMask(&st.writersMask, proc)
	noteSole(&st.soleWriter, proc)
}

// NoteFlush implements core.PolicyController.
func (e *Engine) NoteFlush(page, proc int) {
	st := &e.stats[page]
	st.flushes++
	orMask(&st.writersMask, proc)
	noteSole(&st.soleFlusher, proc)
}

// DecideEpoch implements core.PolicyController: the per-barrier
// decision pass. For every page past the MinSamples evidence gate it
// forms this epoch's fault/flush deltas, refreshes the profiler-taxonomy
// classification (observable via Pattern), and applies at most one mode
// transition per page plus one home migration per superpage:
//
//   - Refetch churn — the page is both written and read-faulted, judged
//     over a two-epoch window — sustained for HoldEpochs: write-update.
//     Consumers then service write notices by refreshing frames in
//     place instead of invalidating, faulting, and refetching. The
//     two-epoch window matters because barrier-phased applications
//     alternate pure-write and pure-read epochs on the same page.
//   - Probe demotion: update mode suppresses the read faults the churn
//     signal is built from, so a page still being written but showing
//     no read fault for ProbeEpochs goes back to write-invalidate to
//     re-sample read interest; live readers re-promote it within a
//     hold window.
//   - Read-mostly — no write or flush for HoldEpochs consecutive
//     epochs, at least two readers, and read faults still arriving:
//     broadcast — the page is pushed to every node once and mapped
//     read-only everywhere, ending its fault stream. Write-quiet
//     epochs, not the cumulative writer mask, define "read-mostly", so
//     a page initialized by one processor and then only read still
//     qualifies. Applied once per page; a later write demotes it at
//     the faulting processor (core's broadcast safety valve).
//   - A sole flusher hosted away from the home, sustained for
//     HoldEpochs: the home migrates to that processor's node, making
//     its flushes local. Homes move at superpage granularity, so the
//     evidence is aggregated over the whole superpage: every page of it
//     with any flush history must name the same sole flusher, or no
//     migration happens — a per-page decision would drag sibling pages'
//     homes away from their own writers.
func (e *Engine) DecideEpoch(epoch int, acts *core.PolicyActions) {
	for g := range e.stats {
		st := &e.stats[g]
		d := &e.dec[g]

		rf, wf, fl := st.readFaults, st.writeFaults, st.flushes
		dRF := rf - d.lastRF
		dWF := wf - d.lastWF
		d.dFl = fl - d.lastFlush
		d.lastRF, d.lastWF, d.lastFlush = rf, wf, fl

		if dWF+d.dFl == 0 {
			d.quietEpochs++
		} else {
			d.quietEpochs = 0
		}

		if rf+wf+fl < int64(e.cfg.MinSamples) {
			continue
		}

		rm, wm := st.readersMask, st.writersMask
		readers := bits.OnesCount64(rm)
		writers := bits.OnesCount64(wm)
		outsideReader := rm&^wm != 0
		d.pattern = metrics.ClassifySharing(readers, writers, outsideReader,
			false, 0, 0)

		// Refetch churn is judged over a two-epoch window: barrier-phased
		// applications often alternate pure-write and pure-read epochs on
		// the same page, and the churn is just as real when the fault and
		// the flush land one barrier apart.
		read := dRF > 0
		write := dWF+d.dFl > 0
		churn := (read || d.prevRead) && (write || d.prevWrite)
		d.prevRead, d.prevWrite = read, write

		mode := acts.Mode(g)
		switch {
		case d.quietEpochs >= e.cfg.HoldEpochs && readers >= 2 && dRF > 0:
			// Read-mostly: no writes for a full hold window yet the
			// page is still taking read faults.
			d.updStreak = 0
			if mode == core.ModeInvalidate && !d.replicated &&
				acts.SetMode(g, core.ModeBroadcast) {
				acts.Replicate(g)
				d.replicated = true
			}
		case churn:
			d.updStreak++
			if d.updStreak >= e.cfg.HoldEpochs && mode == core.ModeInvalidate {
				acts.SetMode(g, core.ModeUpdate)
			}
		default:
			d.updStreak = 0
		}

		// Probe demotion: update mode hides the read faults the churn
		// signal needs, so a page still being written but showing no
		// read interest for ProbeEpochs is demoted to re-sample it.
		if acts.Mode(g) == core.ModeUpdate {
			switch {
			case read:
				d.updNoRead = 0
			case write:
				d.updNoRead++
				if d.updNoRead >= e.cfg.ProbeEpochs {
					acts.SetMode(g, core.ModeInvalidate)
					d.updNoRead, d.updStreak = 0, 0
				}
			}
		} else {
			d.updNoRead = 0
		}
	}

	// Migration pass, one decision per superpage (the streak state lives
	// on its first page).
	for first := 0; first < len(e.stats); {
		_, last := acts.SuperpageRange(first)
		d := &e.dec[first]

		proc, dFl, samples := -1, int64(0), int64(0)
		agree := true
		for g := first; g < last; g++ {
			st := &e.stats[g]
			dFl += e.dec[g].dFl
			samples += st.readFaults + st.writeFaults + st.flushes
			switch sf := st.soleFlusher; {
			case sf == 0: // page never flushed: no constraint
			case sf == soleMulti:
				agree = false
			case proc == -1:
				proc = int(sf) - 1
			case proc != int(sf)-1:
				agree = false
			}
		}

		if !agree || proc < 0 || dFl == 0 || samples < int64(e.cfg.MinSamples) ||
			acts.NodeOf(proc) == acts.HomeNode(first) {
			d.migStreak = 0
		} else {
			if d.migTarget == proc {
				d.migStreak++
			} else {
				d.migTarget, d.migStreak = proc, 1
			}
			if d.migStreak >= e.cfg.HoldEpochs && acts.MigrateHome(first, proc) {
				d.migStreak = 0
			}
		}
		first = last
	}
}

// Pattern returns page's sharing-pattern label under the profiler's
// taxonomy (metrics.ClassifySharing) as of the last decision epoch, or
// "" before the page passes the MinSamples evidence gate. It is the
// online counterpart of the -profile report's pattern column, computed
// from the engine's cumulative reader/writer masks; the per-epoch
// decision rules act on fault/flush deltas, so the label is context
// for a decision, not the decision itself.
func (e *Engine) Pattern(page int) string {
	return e.dec[page].pattern
}
