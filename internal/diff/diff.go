// Package diff implements twin and diff maintenance for the Cashmere
// protocols (paper Sections 2.2 and 2.5).
//
// A twin is a pristine copy of a page made at the first write fault. At a
// release, the page is compared against its twin and the differences —
// the local modifications — are flushed to the home node (an "outgoing"
// diff). Cashmere-2L additionally uses the twin in the other direction:
// when fetching a fresh copy of a page that local processors are still
// writing, the incoming master data is compared against the twin and only
// the differences — which, for data-race-free programs, are exactly the
// modifications made on remote nodes — are applied to the working page
// and the twin (an "incoming" diff, or two-way diffing). This replaces
// TLB shootdown: no intra-node synchronization is needed.
//
// A flush-update writes the local modifications to both the home node and
// the twin, so that later releases by other local writers of the same
// page do not re-flush them and overwrite newer remote changes at the
// home (Section 2.5).
//
// Pages are []int64 word arrays shared between application goroutines and
// protocol code. A caller scanning a whole page excludes the callers'
// bulk (range) stores to it with a lock of its own, but single-word loads
// and stores keep running alongside the scan, so these functions read and
// write page words with sync/atomic. Twins are only touched under the
// owning node's lock, so most functions read them plainly, and MergeRuns
// writes them plainly too.
//
// Both engines (internal/core and internal/mprun) call these merges, and
// they have no switches: a checker that needs the historical clobbering
// merge back gets it from core's per-cluster defect set.
package diff

import "sync/atomic"

// Twin returns a newly-allocated pristine copy of page.
func Twin(page []int64) []int64 {
	t := make([]int64, len(page))
	for i := range page {
		t[i] = atomic.LoadInt64(&page[i])
	}
	return t
}

// Changed returns the number of words at which page and twin differ —
// the size of the outgoing diff a release would flush.
func Changed(page, twin []int64) int {
	n := 0
	for i := range twin {
		if atomic.LoadInt64(&page[i]) != twin[i] {
			n++
		}
	}
	return n
}

// Outgoing compares page against twin and applies the differences (the
// local modifications) to home. The twin is left untouched. It returns
// the number of words written.
func Outgoing(page, twin, home []int64) int {
	n := 0
	for i := range twin {
		v := atomic.LoadInt64(&page[i])
		if v != twin[i] {
			atomic.StoreInt64(&home[i], v)
			n++
		}
	}
	return n
}

// FlushUpdate compares page against twin and writes the differences to
// both home and the twin, returning the number of words written. After
// the call the twin equals the page's flushed contents, so a subsequent
// release by another local writer will flush only genuinely newer
// modifications.
func FlushUpdate(page, twin, home []int64) int {
	n, _, _ := FlushUpdateRange(page, twin, home)
	return n
}

// FlushUpdateRange is FlushUpdate, additionally reporting the inclusive
// span [lo, hi] of changed word offsets (-1, -1 when nothing changed).
// The span feeds the hot-page profiler's sharing-pattern classifier:
// writers whose flushed spans never overlap are false-sharing
// candidates. Tracking it costs two compares per changed word.
func FlushUpdateRange(page, twin, home []int64) (n, lo, hi int) {
	lo, hi = -1, -1
	for i := range twin {
		v := atomic.LoadInt64(&page[i])
		if v != twin[i] {
			atomic.StoreInt64(&home[i], v)
			atomic.StoreInt64(&twin[i], v)
			if n == 0 {
				lo = i
			}
			hi = i
			n++
		}
	}
	return n, lo, hi
}

// OutgoingRange is Outgoing, additionally reporting the inclusive span
// [lo, hi] of changed word offsets (-1, -1 when nothing changed), for
// the same profiling purpose as FlushUpdateRange.
func OutgoingRange(page, twin, home []int64) (n, lo, hi int) {
	lo, hi = -1, -1
	for i := range twin {
		v := atomic.LoadInt64(&page[i])
		if v != twin[i] {
			atomic.StoreInt64(&home[i], v)
			if n == 0 {
				lo = i
			}
			hi = i
			n++
		}
	}
	return n, lo, hi
}

// AppendRuns compares page against twin and appends the differences (the
// local modifications) in the run-encoded form a diff travels in: offs
// gains one (start, count) pair per maximal run of consecutive changed
// words, words gains the runs' values concatenated. It returns the
// extended slices and the inclusive span [lo, hi] of changed word
// offsets (-1, -1 when nothing changed). Page and twin are left
// untouched. A run never bridges an unchanged word: the receiver
// applies every word it is sent, so sending an unchanged word would
// overwrite a concurrent writer's value at the home.
func AppendRuns(offs []int32, words []int64, page, twin []int64) (_ []int32, _ []int64, lo, hi int) {
	lo, hi = -1, -1
	for i := 0; i < len(twin); {
		v := atomic.LoadInt64(&page[i])
		if v == twin[i] {
			i++
			continue
		}
		start := i
		for {
			words = append(words, v)
			i++
			if i == len(twin) {
				break
			}
			if v = atomic.LoadInt64(&page[i]); v == twin[i] {
				break
			}
		}
		offs = append(offs, int32(start), int32(i-start))
		if lo < 0 {
			lo = start
		}
		hi = i - 1
	}
	return offs, words, lo, hi
}

// RunsLen is the receiver's check of AppendRuns's format: it returns
// the words offs's (start, count) pairs cover, or -1 unless they pair
// up, each count is positive, each run begins at or past the end of the
// one before, and all lie inside a page of pageWords words. Runs whose
// length equals the words that came with them are safe to apply.
func RunsLen(pageWords int, offs []int32) int {
	if len(offs)%2 != 0 {
		return -1
	}
	total, end := 0, 0
	for i := 0; i < len(offs); i += 2 {
		start, count := int(offs[i]), int(offs[i+1])
		if start < end || count <= 0 || start+count > pageWords {
			return -1
		}
		end = start + count
		total += count
	}
	return total
}

// ApplyRuns is AppendRuns's receiving end: it stores the runs' words at
// their offsets in dst, word-atomically. The home applies a diff to its
// master copy with it, and a flush-update applies the same runs to the
// twin. The caller has checked that the runs fit dst and cover words
// (RunsLen).
func ApplyRuns(dst []int64, offs []int32, words []int64) {
	for i := 0; i < len(offs); i += 2 {
		start, count := int(offs[i]), int(offs[i+1])
		for j, w := range words[:count] {
			atomic.StoreInt64(&dst[start+j], w)
		}
		words = words[count:]
	}
}

// Incoming compares incoming (the fresh master copy) against twin and
// writes the differences — the remote modifications — to both the
// working page and the twin. Words the local node has modified (which
// differ between working and twin) are preserved in the working page:
// when a remote write and an unreleased local write collide on a word,
// the remote value landed at the home first, so release order makes the
// local write — flushed at this node's next release, against the twin
// now holding the remote value — the last writer. Overwriting the local
// word instead would destroy a write that was never flushed anywhere.
// It returns the number of words applied to the twin.
func Incoming(working, twin, incoming []int64) int {
	n := 0
	for i := range twin {
		v := atomic.LoadInt64(&incoming[i])
		t := atomic.LoadInt64(&twin[i])
		if v != t {
			if atomic.LoadInt64(&working[i]) == t {
				atomic.StoreInt64(&working[i], v)
			}
			atomic.StoreInt64(&twin[i], v)
			n++
		}
	}
	return n
}

// MergeRuns is Incoming over runs only: the runs carry the master's
// words at their offsets, and a word outside them is one the sender
// knows working already holds. A run word that differs from the twin
// goes to the twin, and to working unless the local node has modified
// that word (working differs from twin). With a nil twin — no
// unreleased local writes — it is ApplyRuns. The caller has checked the
// runs (RunsLen) and holds the lock that guards the twin, which is read
// and written plainly: an atomic store costs an exchange a word, and a
// merge runs on every push into a page with unreleased writes.
func MergeRuns(working, twin []int64, offs []int32, words []int64) {
	if twin == nil {
		ApplyRuns(working, offs, words)
		return
	}
	for i := 0; i < len(offs); i += 2 {
		start, count := int(offs[i]), int(offs[i+1])
		for j, v := range words[:count] {
			k := start + j
			if t := twin[k]; v != t {
				if atomic.LoadInt64(&working[k]) == t {
					atomic.StoreInt64(&working[k], v)
				}
				twin[k] = v
			}
		}
		words = words[count:]
	}
}

// Refresh makes dst equal to src, storing word-atomically only the
// words that differ, and returns their number — the payload size of a
// write-update refresh applied to a frame with no twin (no unreleased
// local writes to preserve, so a counted copy is the whole merge). It
// is also the whole-page transfer and exclusive-mode flush: most words
// of a refetched page already match, and a load costs far less than an
// atomic store. The slices must have equal length.
func Refresh(dst, src []int64) int {
	n := 0
	for i := range src {
		v := atomic.LoadInt64(&src[i])
		if atomic.LoadInt64(&dst[i]) != v {
			atomic.StoreInt64(&dst[i], v)
			n++
		}
	}
	return n
}

// CopyIn overwrites dst with src, reading src word-atomically but
// writing dst with plain stores. It is valid only when no other
// goroutine can access dst during the call: a freshly-allocated frame
// not yet published to the fast path, or a pooled twin being refilled
// under the owning node's lock. Plain stores avoid the cost of an
// atomic store per word (an exchange on amd64, roughly an order of
// magnitude on a full page), which is why the allocation-free fetch and
// twin paths use it.
func CopyIn(dst, src []int64) {
	for i := range src {
		dst[i] = atomic.LoadInt64(&src[i])
	}
}

// Equal reports whether two pages hold identical contents.
func Equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if atomic.LoadInt64(&a[i]) != atomic.LoadInt64(&b[i]) {
			return false
		}
	}
	return true
}
