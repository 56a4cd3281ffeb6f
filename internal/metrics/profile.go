package metrics

import (
	"fmt"
	"io"
	"sort"

	"cashmere/internal/trace"
)

// Sharing-pattern labels assigned by classifyPage. The taxonomy follows
// the paper's discussion of application behavior (Section 4): pages a
// protocol spends time on are usually one of these shapes, and the
// label tells the user which protocol mechanism (first-touch homes,
// exclusive mode, padding) would help.
const (
	PatternReadOnly         = "read-only"
	PatternSingleWriter     = "single-writer"
	PatternProducerConsumer = "producer-consumer"
	PatternMigratory        = "migratory"
	PatternFalseSharing     = "false-sharing"
	PatternWriteShared      = "write-shared"
)

// PageProfile aggregates one page's protocol activity over a run.
type PageProfile struct {
	Page int `json:"page"`

	// ProtocolNS sums the duration of the page's read- and write-fault
	// spans, in the recording's clock — the time processors stalled
	// resolving access to it. Page-fetch spans nest inside fault spans
	// and are not added again.
	ProtocolNS int64 `json:"protocol_ns"`

	ReadFaults  int64 `json:"read_faults"`
	WriteFaults int64 `json:"write_faults"`
	Transfers   int64 `json:"transfers"`
	Shootdowns  int64 `json:"shootdowns,omitempty"`
	DiffsOut    int64 `json:"diffs_out"`
	DiffsIn     int64 `json:"diffs_in"`
	DiffWords   int64 `json:"diff_words"`

	// Readers and Writers count distinct faulting processors.
	Readers int `json:"readers"`
	Writers int `json:"writers"`

	// Samples is the number of classification-relevant events (faults
	// and diffs) behind the Pattern label. A label backed by fewer than
	// LowConfidenceSamples events is weak evidence: a page touched three
	// times can look "migratory" by accident, one touched three hundred
	// times cannot.
	Samples int64 `json:"samples"`

	Pattern string `json:"pattern"`
}

// LowConfidenceSamples is the evidence threshold below which a sharing-
// pattern label is flagged as low-confidence in the text report. The
// adaptive policy engine uses the same bar (policy.Config.MinSamples
// defaults to it) before acting on a classification.
const LowConfidenceSamples = 8

// SyncProfile aggregates acquire latency for one lock or flag.
type SyncProfile struct {
	Kind     string `json:"kind"` // "lock" or "flag"
	Index    int    `json:"index"`
	Acquires int64  `json:"acquires"`
	TotalNS  int64  `json:"total_ns"`
	MaxNS    int64  `json:"max_ns"`
}

// MeanNS returns the mean acquire latency.
func (s SyncProfile) MeanNS() int64 {
	if s.Acquires == 0 {
		return 0
	}
	return s.TotalNS / s.Acquires
}

// BarrierProfile aggregates barrier episode latency across processors.
type BarrierProfile struct {
	Episodes int64 `json:"episodes"`
	TotalNS  int64 `json:"total_ns"`
	MaxNS    int64 `json:"max_ns"`
}

// MeanNS returns the mean per-processor barrier span.
func (b BarrierProfile) MeanNS() int64 {
	if b.Episodes == 0 {
		return 0
	}
	return b.TotalNS / b.Episodes
}

// Profile is the hot-page / hot-lock attribution report for one traced
// run: the top pages by protocol time, every contended lock and flag,
// and the barrier aggregate.
type Profile struct {
	// Pages holds the top-N pages by ProtocolNS, descending.
	Pages []PageProfile `json:"pages"`
	// TotalPages is the number of distinct pages with protocol events,
	// before the top-N cut.
	TotalPages int `json:"total_pages"`

	Locks   []SyncProfile  `json:"locks,omitempty"`
	Barrier BarrierProfile `json:"barrier"`

	// DroppedEvents is the number of trace events overwritten in the
	// rings; nonzero means the attribution undercounts.
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
}

// pageAcc is the per-page accumulator while scanning the event stream.
type pageAcc struct {
	prof    PageProfile
	readers map[int32]bool
	writers map[int32]bool

	// spans holds each processor's merged written-word envelope from
	// its EvDiffOut spans, for the false-sharing test.
	spans map[int32][2]int

	// lastWriter and alternations track the write-fault processor
	// sequence in time order, for the migratory test.
	lastWriter   int32
	writeSeqLen  int64
	alternations int64
}

// BuildProfile scans a recorded run and returns the attribution
// profile. topN bounds the page list (<= 0 means 20). A recording is in
// time order with cluster-wide processor ids, so the write-fault
// alternation sequence is as deterministic as the run.
func BuildProfile(rec *trace.Recording, topN int) *Profile {
	if topN <= 0 {
		topN = 20
	}
	p := &Profile{DroppedEvents: rec.Dropped}

	pages := make(map[int32]*pageAcc)
	pg := func(id int32) *pageAcc {
		a := pages[id]
		if a == nil {
			a = &pageAcc{
				prof:       PageProfile{Page: int(id)},
				readers:    make(map[int32]bool),
				writers:    make(map[int32]bool),
				spans:      make(map[int32][2]int),
				lastWriter: -1,
			}
			pages[id] = a
		}
		return a
	}

	locks := make(map[[2]int64]*SyncProfile) // {kindTag, index}
	syncAcc := func(kind string, tag, idx, dur int64) {
		key := [2]int64{tag, idx}
		s := locks[key]
		if s == nil {
			s = &SyncProfile{Kind: kind, Index: int(idx)}
			locks[key] = s
		}
		s.Acquires++
		s.TotalNS += dur
		if dur > s.MaxNS {
			s.MaxNS = dur
		}
	}

	for _, e := range rec.Events {
		switch e.Kind {
		case trace.EvReadFault:
			a := pg(e.Page)
			a.prof.ReadFaults++
			a.prof.ProtocolNS += e.Dur
			a.readers[e.Proc] = true
		case trace.EvWriteFault:
			a := pg(e.Page)
			a.prof.WriteFaults++
			a.prof.ProtocolNS += e.Dur
			a.writers[e.Proc] = true
			a.writeSeqLen++
			if a.lastWriter >= 0 && a.lastWriter != e.Proc {
				a.alternations++
			}
			a.lastWriter = e.Proc
		case trace.EvPageFetch:
			pg(e.Page).prof.Transfers++
		case trace.EvShootdown:
			pg(e.Page).prof.Shootdowns++
		case trace.EvDiffOut:
			a := pg(e.Page)
			a.prof.DiffsOut++
			a.prof.DiffWords += e.Arg
			a.writers[e.Proc] = true
			if lo, hi, ok := trace.UnpackWordSpan(e.Arg2); ok {
				if sp, seen := a.spans[e.Proc]; seen {
					if lo < sp[0] {
						sp[0] = lo
					}
					if hi > sp[1] {
						sp[1] = hi
					}
					a.spans[e.Proc] = sp
				} else {
					a.spans[e.Proc] = [2]int{lo, hi}
				}
			}
		case trace.EvDiffIn:
			a := pg(e.Page)
			a.prof.DiffsIn++
			a.prof.DiffWords += e.Arg
		case trace.EvLock:
			syncAcc("lock", 0, e.Arg, e.Dur)
		case trace.EvFlagWait:
			syncAcc("flag", 1, e.Arg, e.Dur)
		case trace.EvBarrier:
			p.Barrier.Episodes++
			p.Barrier.TotalNS += e.Dur
			if e.Dur > p.Barrier.MaxNS {
				p.Barrier.MaxNS = e.Dur
			}
		}
	}

	p.TotalPages = len(pages)
	all := make([]*pageAcc, 0, len(pages))
	for _, a := range pages {
		a.prof.Readers = len(a.readers)
		a.prof.Writers = len(a.writers)
		a.prof.Samples = a.prof.ReadFaults + a.prof.WriteFaults +
			a.prof.DiffsOut + a.prof.DiffsIn
		a.prof.Pattern = classifyPage(a)
		all = append(all, a)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].prof.ProtocolNS != all[j].prof.ProtocolNS {
			return all[i].prof.ProtocolNS > all[j].prof.ProtocolNS
		}
		return all[i].prof.Page < all[j].prof.Page
	})
	if len(all) > topN {
		all = all[:topN]
	}
	for _, a := range all {
		p.Pages = append(p.Pages, a.prof)
	}

	lk := make([]SyncProfile, 0, len(locks))
	for _, s := range locks {
		lk = append(lk, *s)
	}
	sort.Slice(lk, func(i, j int) bool {
		if lk[i].TotalNS != lk[j].TotalNS {
			return lk[i].TotalNS > lk[j].TotalNS
		}
		if lk[i].Kind != lk[j].Kind {
			return lk[i].Kind < lk[j].Kind
		}
		return lk[i].Index < lk[j].Index
	})
	p.Locks = lk
	return p
}

// classifyPage assigns the sharing-pattern label.
//
//   - No writer: read-only.
//   - One writer with other readers: producer-consumer. Alone:
//     single-writer.
//   - Multiple writers whose flushed word envelopes are pairwise
//     disjoint: false-sharing candidate — distinct processors modify
//     distinct parts of the page and share it only because they share
//     the coherence block.
//   - Multiple writers whose write faults alternate between processors
//     at least three quarters of the time: migratory — the page moves
//     writer to writer (a reduction variable, a task queue head).
//   - Anything else: write-shared.
func classifyPage(a *pageAcc) string {
	outsideReader := false
	for r := range a.readers {
		if !a.writers[r] {
			outsideReader = true
			break
		}
	}
	return ClassifySharing(len(a.readers), len(a.writers), outsideReader,
		len(a.spans) >= 2 && disjointSpans(a.spans),
		a.writeSeqLen, a.alternations)
}

// ClassifySharing is the sharing-pattern decision procedure behind
// classifyPage, exported so the adaptive policy engine (internal/policy)
// applies the same taxonomy to its online per-epoch counters that the
// offline profiler applies to a full trace.
//
// readers and writers count distinct faulting processors;
// outsideReader reports whether some reader is not also a writer;
// spansDisjoint reports whether multiple writers' flushed word
// envelopes are pairwise disjoint (callers without span tracking pass
// false, which only forfeits the false-sharing label); writeSeqLen and
// alternations describe the write-fault processor sequence (callers
// without ordering pass 0, 0, which only forfeits the migratory label).
func ClassifySharing(readers, writers int, outsideReader, spansDisjoint bool, writeSeqLen, alternations int64) string {
	if writers == 0 {
		return PatternReadOnly
	}
	if writers == 1 {
		if outsideReader {
			return PatternProducerConsumer
		}
		return PatternSingleWriter
	}
	if spansDisjoint {
		return PatternFalseSharing
	}
	if writeSeqLen >= 4 && alternations*4 >= (writeSeqLen-1)*3 {
		return PatternMigratory
	}
	return PatternWriteShared
}

// disjointSpans reports whether every pair of per-processor word
// envelopes is non-overlapping.
func disjointSpans(spans map[int32][2]int) bool {
	list := make([][2]int, 0, len(spans))
	for _, sp := range spans {
		list = append(list, sp)
	}
	sort.Slice(list, func(i, j int) bool { return list[i][0] < list[j][0] })
	for i := 1; i < len(list); i++ {
		if list[i][0] <= list[i-1][1] {
			return false
		}
	}
	return true
}

// WriteText renders the profile as the -profile text report.
func (p *Profile) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "hot pages (%d of %d with protocol activity)\n", len(p.Pages), p.TotalPages)
	fmt.Fprintf(w, "%6s %12s %7s %7s %6s %6s %6s %4s %4s %6s  %s\n",
		"page", "proto-ns", "rfault", "wfault", "fetch", "dout", "din", "rd", "wr", "smpl", "pattern")
	for _, pg := range p.Pages {
		pattern := pg.Pattern
		if pg.Samples < LowConfidenceSamples {
			pattern += " ?" // too few samples to trust the label
		}
		fmt.Fprintf(w, "%6d %12d %7d %7d %6d %6d %6d %4d %4d %6d  %s\n",
			pg.Page, pg.ProtocolNS, pg.ReadFaults, pg.WriteFaults, pg.Transfers,
			pg.DiffsOut, pg.DiffsIn, pg.Readers, pg.Writers, pg.Samples, pattern)
	}

	if len(p.Locks) > 0 {
		fmt.Fprintf(w, "\nhot locks/flags\n")
		fmt.Fprintf(w, "%6s %5s %9s %12s %12s %12s\n",
			"kind", "idx", "acquires", "total-ns", "mean-ns", "max-ns")
		for _, l := range p.Locks {
			fmt.Fprintf(w, "%6s %5d %9d %12d %12d %12d\n",
				l.Kind, l.Index, l.Acquires, l.TotalNS, l.MeanNS(), l.MaxNS)
		}
	}

	if p.Barrier.Episodes > 0 {
		fmt.Fprintf(w, "\nbarriers: %d episodes, mean %d ns, max %d ns\n",
			p.Barrier.Episodes, p.Barrier.MeanNS(), p.Barrier.MaxNS)
	}
	if p.DroppedEvents > 0 {
		fmt.Fprintf(w, "\nwarning: %d trace events dropped; attribution undercounts\n", p.DroppedEvents)
	}
	return nil
}
