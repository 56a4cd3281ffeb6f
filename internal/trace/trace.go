// Package trace is the protocol observability layer: a low-overhead
// structured recorder of typed protocol events (faults, page fetches,
// twins and diffs, write notices, shootdowns, synchronization epochs,
// and Memory Channel traffic), stamped with both virtual time and host
// wall time.
//
// Each simulated processor owns a lock-free ring buffer (single
// producer; concurrent readers validate slots with per-slot sequence
// numbers, so an export racing the run sees only committed events) and
// each Memory Channel link has a mutex-guarded ring for events emitted
// outside processor context. Emission never charges virtual time, so a
// traced run produces the same virtual-time results as an untraced one;
// with tracing disabled the protocol pays a single nil check per
// emission site and the access fast path is untouched.
//
// A finished run is a [Recording] — time-ordered events, the name of
// their clock and a track table — from [Tracer.Recording] for the
// simulator or [Merge] for the ranks of the multi-process runtime
// (internal/mprun), and it is all that the exporters read:
//
//   - Chrome trace-event JSON ([WriteChrome]), loadable in Perfetto;
//   - a per-page text timeline ([WritePageTimeline]), the structured
//     successor of the CASHMERE_TRACE_PAGE stderr dump; and
//   - the hot-page / hot-lock profile (metrics.BuildProfile).
//
// Histogram summaries ([Tracer.Summary]: fault latency, diff size,
// messages per barrier interval) for the cashmere-bench -json results
// file accumulate at emission time instead.
//
// # Concurrency
//
// A processor ring's Emit may be called only by its owning goroutine.
// EmitLink, Notef, Snapshot, Events, Recording, and Summary are safe to
// call from any goroutine at any time, including concurrently with
// emission.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies one protocol event type.
type Kind uint8

// The protocol events of the Cashmere-2L coherence engine. Span events
// (nonzero Dur) cover an interval of virtual time; the rest are
// instants.
const (
	EvNone            Kind = iota
	EvReadFault            // span: read access violation entry to resolution
	EvWriteFault           // span: write access violation entry to resolution
	EvPageFetch            // span: page transfer from the home node; Arg=bytes, Arg2=home protocol node
	EvTwin                 // instant: twin created; Arg=page words
	EvDiffOut              // instant: outgoing diff flushed to the home; Arg=changed words, Arg2=PackWordSpan of the changed offsets
	EvDiffIn               // instant: incoming diff applied; Arg=changed words
	EvNoticeSend           // instant: write notice posted; Arg=destination protocol node
	EvNoticeApply          // instant: write notice consumed as an invalidation at an acquire
	EvShootdown            // instant: 2LS write-mapping revocation; Arg=victim local processor
	EvShootdownDrain       // instant: in-flight store-range runs drained; Arg=revoked writers
	EvExclEnter            // instant: page entered exclusive mode
	EvExclBreak            // span: explicit-request exchange breaking exclusive mode; Arg=holder node, Arg2=holder proc
	EvBarrier              // span: barrier arrival through departure-side acquire
	EvLock                 // span: lock acquisition through acquire actions; Arg=lock index
	EvUnlock               // span: release actions through lock release; Arg=lock index
	EvFlagSet              // span: release actions through flag raise; Arg=flag index
	EvFlagWait             // span: flag wait through acquire actions; Arg=flag index
	EvDirUpdate            // instant: directory word broadcast; Arg=writing protocol node
	EvHomeMigrate          // instant: first-touch superpage relocation; Arg=old home, Arg2=new home
	EvLinkTransfer         // span: bulk transfer occupying a fabric link; Arg=bytes
	EvMsgSend              // instant/span: synchronization write on a fabric link; Arg2=msgLock*/msgFlag* subtype
	EvMsgDeliver           // instant: synchronization write observed by a waiter
	EvPolicyMode           // instant: adaptive policy changed a page's coherence mode; Arg=old mode, Arg2=new mode
	EvPolicyReplicate      // instant: adaptive policy replicated a page cluster-wide; Arg=nodes touched
	EvFlushFence           // span: multi-process release flush through the last flush-ack; Arg=pages flushed
	numKinds
)

// EvMsgSend subtypes, recorded in Arg2.
const (
	MsgLockAcquire int64 = iota
	MsgLockRelease
	MsgFlagSet
	MsgFlagReset
)

var kindNames = [...]string{
	EvNone:            "none",
	EvReadFault:       "read-fault",
	EvWriteFault:      "write-fault",
	EvPageFetch:       "page-fetch",
	EvTwin:            "twin",
	EvDiffOut:         "diff-out",
	EvDiffIn:          "diff-in",
	EvNoticeSend:      "notice-send",
	EvNoticeApply:     "notice-apply",
	EvShootdown:       "shootdown",
	EvShootdownDrain:  "shootdown-drain",
	EvExclEnter:       "excl-enter",
	EvExclBreak:       "excl-break",
	EvBarrier:         "barrier",
	EvLock:            "lock",
	EvUnlock:          "unlock",
	EvFlagSet:         "flag-set",
	EvFlagWait:        "flag-wait",
	EvDirUpdate:       "dir-update",
	EvHomeMigrate:     "home-migrate",
	EvLinkTransfer:    "link-transfer",
	EvMsgSend:         "msg-send",
	EvMsgDeliver:      "msg-deliver",
	EvPolicyMode:      "policy-mode",
	EvPolicyReplicate: "policy-replicate",
	EvFlushFence:      "flush-fence",
}

// String returns the event kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// NumKinds is the number of defined event kinds.
const NumKinds = int(numKinds)

// Event is one recorded protocol event.
type Event struct {
	Kind Kind
	Proc int32 // emitting global processor id; -1 on link tracks
	Node int32 // protocol node (processor events) or physical link (link events)
	Page int32 // page number; -1 when not page-related
	VT   int64 // virtual time at the event (span start), nanoseconds
	Dur  int64 // span length in virtual nanoseconds; 0 for instants
	WT   int64 // host wall-clock nanoseconds since the tracer started
	Arg  int64 // kind-specific payload (bytes, words, target ids)
	Arg2 int64 // second kind-specific payload
}

// packMeta squeezes kind, proc, node, and page into one word so a slot
// commits in few atomic stores. Proc, node (12 bits each) and page
// (32 bits) are stored biased by one so -1 round-trips.
func packMeta(e Event) int64 {
	return int64(e.Kind)<<56 |
		int64(uint64(uint32(e.Proc+1))&0xfff)<<44 |
		int64(uint64(uint32(e.Node+1))&0xfff)<<32 |
		int64(uint32(e.Page+1))
}

func unpackMeta(m int64, e *Event) {
	e.Kind = Kind(uint64(m) >> 56)
	e.Proc = int32(uint64(m)>>44&0xfff) - 1
	e.Node = int32(uint64(m)>>32&0xfff) - 1
	e.Page = int32(uint32(m)) - 1
}

// slot holds one event in atomically-accessed words. seq is 2*pos+1
// while position pos is being written and 2*pos+2 once it has
// committed, so a reader can detect both torn and recycled slots.
type slot struct {
	seq atomic.Uint64
	w   [5]atomic.Int64 // meta, vt, dur, wt, arg
	a2  atomic.Int64
}

// Ring is a fixed-capacity event buffer with a single producer. When
// full it overwrites the oldest events (the most recent window is the
// interesting one); Dropped reports how many were lost. Readers never
// block the producer: Snapshot skips slots that are mid-write.
type Ring struct {
	slots []slot
	mask  uint64
	head  atomic.Uint64 // next position to write; monotonically increasing

	// Producer-owned summary accumulators (see hist.go). The histogram
	// buckets themselves are atomic so Summary may run concurrently.
	counts    [NumKinds]atomic.Int64
	faultNS   hist
	diffWords hist
	msgsBar   hist
	msgsSince int64 // producer-only: protocol messages since the last barrier
}

// NewRing returns a ring holding at least capacity events (rounded up
// to a power of two, minimum 2).
func NewRing(capacity int) *Ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Cap returns the ring's capacity in events.
func (r *Ring) Cap() int { return len(r.slots) }

// Emitted returns the total number of events emitted, including any
// that have since been overwritten.
func (r *Ring) Emitted() uint64 { return r.head.Load() }

// Dropped returns how many events have been overwritten.
func (r *Ring) Dropped() uint64 {
	if h := r.head.Load(); h > uint64(len(r.slots)) {
		return h - uint64(len(r.slots))
	}
	return 0
}

// Emit records e. Only the ring's owning goroutine may call it.
func (r *Ring) Emit(e Event) {
	pos := r.head.Load()
	s := &r.slots[pos&r.mask]
	s.seq.Store(2*pos + 1)
	s.w[0].Store(packMeta(e))
	s.w[1].Store(e.VT)
	s.w[2].Store(e.Dur)
	s.w[3].Store(e.WT)
	s.w[4].Store(e.Arg)
	s.a2.Store(e.Arg2)
	s.seq.Store(2*pos + 2)
	r.head.Store(pos + 1)
	r.note(e)
}

// Snapshot appends the ring's committed events to dst, oldest first,
// and returns the result. It is safe to call while the producer is
// emitting: a slot overwritten or mid-write during the read is skipped.
func (r *Ring) Snapshot(dst []Event) []Event {
	head := r.head.Load()
	start := uint64(0)
	if head > uint64(len(r.slots)) {
		start = head - uint64(len(r.slots))
	}
	for pos := start; pos < head; pos++ {
		s := &r.slots[pos&r.mask]
		want := 2*pos + 2
		if s.seq.Load() != want {
			continue // being rewritten by a newer event
		}
		var e Event
		unpackMeta(s.w[0].Load(), &e)
		e.VT = s.w[1].Load()
		e.Dur = s.w[2].Load()
		e.WT = s.w[3].Load()
		e.Arg = s.w[4].Load()
		e.Arg2 = s.a2.Load()
		if s.seq.Load() != want {
			continue // overwritten while we were reading
		}
		dst = append(dst, e)
	}
	return dst
}

// Config describes a Tracer.
type Config struct {
	// Procs and Links size the per-processor and per-link ring sets. A
	// cluster needs one ring per simulated processor and one per
	// physical node (fabric link). The multi-process runtime uses one
	// ring per local processor goroutine plus one for the frame-handler
	// goroutine, and no link rings.
	Procs int
	Links int

	// RingSize is the per-ring capacity in events (rounded up to a
	// power of two). Zero means DefaultRingSize.
	RingSize int

	// Pages, when non-empty, is the page filter for the live Notef
	// stream. It does not restrict which events are recorded.
	Pages map[int]bool

	// Live, when set, receives Notef lines for pages in the filter as
	// they happen — the behavior CASHMERE_TRACE_PAGE historically
	// provided on stderr.
	Live io.Writer
}

// DefaultRingSize is the per-ring event capacity used when Config
// leaves RingSize zero.
const DefaultRingSize = 1 << 14

// Tracer records the events of one cluster run.
type Tracer struct {
	start time.Time

	procs []*Ring
	links []*Ring
	lmu   []sync.Mutex // guards the corresponding links ring (multi-producer)

	pages  map[int]bool
	live   io.Writer
	livemu sync.Mutex
}

// New returns a tracer for a cluster with the given shape.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	t := &Tracer{
		start: time.Now(),
		procs: make([]*Ring, cfg.Procs),
		links: make([]*Ring, cfg.Links),
		lmu:   make([]sync.Mutex, cfg.Links),
		live:  cfg.Live,
	}
	for i := range t.procs {
		t.procs[i] = NewRing(cfg.RingSize)
	}
	for i := range t.links {
		t.links[i] = NewRing(cfg.RingSize)
	}
	if len(cfg.Pages) > 0 {
		t.pages = make(map[int]bool, len(cfg.Pages))
		for p, ok := range cfg.Pages {
			if ok {
				t.pages[p] = true
			}
		}
	}
	return t
}

// Procs returns the number of processor rings.
func (t *Tracer) Procs() int { return len(t.procs) }

// Links returns the number of link rings.
func (t *Tracer) Links() int { return len(t.links) }

// ProcRing returns processor i's ring, or nil if i is out of range.
func (t *Tracer) ProcRing(i int) *Ring {
	if i < 0 || i >= len(t.procs) {
		return nil
	}
	return t.procs[i]
}

// WallNow returns nanoseconds of host wall time since the tracer was
// created — the WT stamp of events.
func (t *Tracer) WallNow() int64 { return time.Since(t.start).Nanoseconds() }

// EmitProc records e on processor proc's track, stamping wall time.
func (t *Tracer) EmitProc(proc int, e Event) {
	r := t.ProcRing(proc)
	if r == nil {
		return
	}
	e.WT = t.WallNow()
	r.Emit(e)
}

// EmitLink records e on link link's track, stamping wall time. Unlike
// processor rings, link rings accept concurrent emitters (any processor
// of a node injects traffic on its link), serialized by a per-link
// mutex.
func (t *Tracer) EmitLink(link int, e Event) {
	if link < 0 || link >= len(t.links) {
		return
	}
	e.WT = t.WallNow()
	t.lmu[link].Lock()
	t.links[link].Emit(e)
	t.lmu[link].Unlock()
}

// TracesPage reports whether page is in the live page filter.
func (t *Tracer) TracesPage(page int) bool { return t.pages[page] }

// ClampPages removes filter pages outside [0, pages), calling warn for
// each removed page. The cluster applies it once the page count is
// known, so a typo'd CASHMERE_TRACE_PAGE or -trace-pages entry is
// reported instead of silently never matching.
func (t *Tracer) ClampPages(pages int, warn func(page int)) {
	for p := range t.pages {
		if p >= pages {
			delete(t.pages, p)
			if warn != nil {
				warn(p)
			}
		}
	}
}

// Notef writes a live free-form trace line for page if it is in the
// page filter — the formatted stderr stream CASHMERE_TRACE_PAGE users
// rely on, now carried by the tracer.
func (t *Tracer) Notef(proc, node, page int, format string, args ...any) {
	if t.live == nil || !t.pages[page] {
		return
	}
	t.livemu.Lock()
	fmt.Fprintf(t.live, "[p%d n%d pg%d] %s\n", proc, node, page, fmt.Sprintf(format, args...))
	t.livemu.Unlock()
}

// Events returns every committed event, merged across all rings and
// sorted by virtual time. Ties preserve per-ring emission order, with
// processor tracks (in id order) before link tracks, so the merge is
// deterministic whenever the per-processor virtual-time streams are.
func (t *Tracer) Events() []Event {
	type tagged struct {
		e     Event
		track int
		seq   int
	}
	var all []tagged
	var buf []Event
	track := 0
	collect := func(r *Ring) {
		buf = r.Snapshot(buf[:0])
		for i, e := range buf {
			all = append(all, tagged{e, track, i})
		}
		track++
	}
	for _, r := range t.procs {
		collect(r)
	}
	for i, r := range t.links {
		t.lmu[i].Lock()
		collect(r)
		t.lmu[i].Unlock()
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.e.VT != b.e.VT {
			return a.e.VT < b.e.VT
		}
		if a.track != b.track {
			return a.track < b.track
		}
		return a.seq < b.seq
	})
	out := make([]Event, len(all))
	for i, tg := range all {
		out[i] = tg.e
	}
	return out
}

// Dropped returns the total number of events overwritten across all
// rings.
func (t *Tracer) Dropped() uint64 {
	var n uint64
	for _, r := range t.procs {
		n += r.Dropped()
	}
	for _, r := range t.links {
		n += r.Dropped()
	}
	return n
}

// PackWordSpan packs an inclusive changed-word span [lo, hi] into one
// event payload word (EvDiffOut's Arg2): lo in the upper half, hi+1 in
// the lower. An empty span (lo < 0) packs to zero, which UnpackWordSpan
// reports as not-ok, so a zero-filled legacy event decodes as "span
// unknown" rather than as word 0.
func PackWordSpan(lo, hi int) int64 {
	if lo < 0 {
		return 0
	}
	return int64(lo)<<32 | int64(hi+1)
}

// UnpackWordSpan decodes a PackWordSpan payload. ok is false when no
// span was recorded.
func UnpackWordSpan(v int64) (lo, hi int, ok bool) {
	if v == 0 {
		return 0, 0, false
	}
	return int(v >> 32), int(v&0xffffffff) - 1, true
}

// ParsePageList parses a comma-separated list of non-negative page
// numbers ("7" or "7,12,40"). Empty elements are rejected so a typo
// like "7,,12" is reported instead of silently dropped. This is the
// syntax of both the CASHMERE_TRACE_PAGE environment variable and the
// -trace-pages flag.
func ParsePageList(v string) (map[int]bool, error) {
	pages := make(map[int]bool)
	for _, field := range strings.Split(v, ",") {
		field = strings.TrimSpace(field)
		n, err := strconv.Atoi(field)
		if err != nil {
			return nil, fmt.Errorf("bad page number %q", field)
		}
		if n < 0 {
			return nil, fmt.Errorf("negative page number %d", n)
		}
		pages[n] = true
	}
	return pages, nil
}
