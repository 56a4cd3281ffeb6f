package diff

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func page(vals ...int64) []int64 {
	p := make([]int64, len(vals))
	copy(p, vals)
	return p
}

func TestTwinIsIndependentCopy(t *testing.T) {
	p := page(1, 2, 3)
	tw := Twin(p)
	if !Equal(p, tw) {
		t.Fatal("twin differs from page")
	}
	p[1] = 99
	if tw[1] != 2 {
		t.Error("twin aliases page storage")
	}
}

func TestChanged(t *testing.T) {
	p := page(1, 2, 3, 4)
	tw := Twin(p)
	if got := Changed(p, tw); got != 0 {
		t.Errorf("pristine page Changed = %d", got)
	}
	p[0], p[3] = 10, 40
	if got := Changed(p, tw); got != 2 {
		t.Errorf("Changed = %d, want 2", got)
	}
}

func TestOutgoingAppliesOnlyLocalMods(t *testing.T) {
	p := page(1, 2, 3, 4)
	tw := Twin(p)
	home := page(1, 2, 3, 4)
	// Local writes words 0 and 2; meanwhile home has a newer remote
	// value at word 3 which the outgoing diff must not clobber.
	p[0], p[2] = 100, 300
	home[3] = 444
	n := Outgoing(p, tw, home)
	if n != 2 {
		t.Errorf("Outgoing applied %d words, want 2", n)
	}
	want := page(100, 2, 300, 444)
	if !Equal(home, want) {
		t.Errorf("home = %v, want %v", home, want)
	}
	// Outgoing leaves the twin untouched.
	if tw[0] != 1 || tw[2] != 3 {
		t.Errorf("Outgoing modified the twin: %v", tw)
	}
}

func TestFlushUpdateUpdatesTwin(t *testing.T) {
	p := page(1, 2, 3, 4)
	tw := Twin(p)
	home := page(1, 2, 3, 4)
	p[1] = 22
	n := FlushUpdate(p, tw, home)
	if n != 1 {
		t.Errorf("FlushUpdate applied %d, want 1", n)
	}
	if home[1] != 22 {
		t.Errorf("home[1] = %d, want 22", home[1])
	}
	if tw[1] != 22 {
		t.Errorf("twin[1] = %d, want 22 (flush-update must update the twin)", tw[1])
	}
	// A second flush by another local processor now sees no changes to
	// this word and leaves a newer remote value at the home alone.
	home[1] = 555 // newer remote write arrives at home
	if n := FlushUpdate(p, tw, home); n != 0 {
		t.Errorf("re-flush applied %d words, want 0", n)
	}
	if home[1] != 555 {
		t.Errorf("re-flush clobbered newer remote value: home[1] = %d", home[1])
	}
}

func TestIncomingAppliesOnlyRemoteMods(t *testing.T) {
	// The scenario two-way diffing exists for: a local processor holds
	// dirty (unflushed) words while a fresh master copy arrives with
	// remote modifications to other words.
	p := page(1, 2, 3, 4)
	tw := Twin(p)
	p[0] = 100 // local modification, not yet flushed
	incoming := page(1, 2, 333, 4)
	n := Incoming(p, tw, incoming)
	if n != 1 {
		t.Errorf("Incoming applied %d, want 1", n)
	}
	want := page(100, 2, 333, 4) // local mod preserved, remote mod applied
	if !Equal(p, want) {
		t.Errorf("working page = %v, want %v", p, want)
	}
	// Twin picked up the remote change so the next release will not
	// flush it back (it is not a local modification).
	if tw[2] != 333 {
		t.Errorf("twin[2] = %d, want 333", tw[2])
	}
	if tw[0] != 1 {
		t.Errorf("twin[0] = %d, want 1 (local mod must stay flushable)", tw[0])
	}
	// The local modification remains the only outgoing diff.
	if got := Changed(p, tw); got != 1 {
		t.Errorf("outgoing diff after incoming diff = %d words, want 1", got)
	}
}

func TestIncomingThenFlushRoundTrip(t *testing.T) {
	// Full two-node exchange: node A writes word 0, node B writes word
	// 1; each flushes to home and fetches via incoming diff; both end
	// with the merged page.
	home := page(10, 20)
	pa, pb := page(10, 20), page(10, 20)
	ta, tb := Twin(pa), Twin(pb)

	pa[0] = 11 // A writes
	pb[1] = 22 // B writes

	FlushUpdate(pa, ta, home) // A releases
	Incoming(pb, tb, home)    // B acquires and fetches
	want := page(11, 22)
	if !Equal(pb, want) {
		t.Errorf("B's page = %v, want %v", pb, want)
	}

	FlushUpdate(pb, tb, home) // B releases
	Incoming(pa, ta, home)    // A fetches
	if !Equal(pa, want) {
		t.Errorf("A's page = %v, want %v", pa, want)
	}
	if !Equal(home, want) {
		t.Errorf("home = %v, want %v", home, want)
	}
}

func TestCopy(t *testing.T) {
	src := page(7, 8, 9)
	dst := page(0, 0, 0)
	Copy(dst, src)
	if !Equal(dst, src) {
		t.Errorf("Copy: dst = %v", dst)
	}
}

func TestEqual(t *testing.T) {
	if Equal(page(1, 2), page(1, 2, 3)) {
		t.Error("pages of different lengths reported equal")
	}
	if !Equal(page(1, 2), page(1, 2)) {
		t.Error("identical pages reported unequal")
	}
	if Equal(page(1, 2), page(1, 3)) {
		t.Error("different pages reported equal")
	}
}

// Property: for any base page and any pair of DISJOINT local and remote
// write sets, flush-update from the local side and incoming diff on the
// other side always produce the merged page — the data-race-free merge
// guarantee the protocol relies on.
func TestMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(64)
		base := make([]int64, n)
		for i := range base {
			base[i] = rng.Int63n(1000)
		}
		home := Twin(base)
		local := Twin(base)
		remote := Twin(base)
		ltwin := Twin(local)
		rtwin := Twin(remote)

		want := Twin(base)
		perm := rng.Perm(n)
		k := rng.Intn(n + 1)
		for idx, w := range perm {
			v := rng.Int63n(1000) + 2000 // distinct from base values
			if idx < k {
				local[w] = v
			} else {
				remote[w] = v
			}
			want[w] = v
		}

		// Remote node releases first; local node then fetches with an
		// incoming diff while still holding its own dirty words, then
		// releases its own changes.
		FlushUpdate(remote, rtwin, home)
		Incoming(local, ltwin, home)
		FlushUpdate(local, ltwin, home)

		return Equal(local, want) && Equal(home, want) && Equal(ltwin, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FlushUpdate makes the twin equal the page, and a second
// FlushUpdate is always a no-op.
func TestFlushUpdateIdempotent(t *testing.T) {
	f := func(vals []int64, muts []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		p := make([]int64, len(vals))
		copy(p, vals)
		tw := Twin(p)
		home := Twin(p)
		for i, m := range muts {
			p[i%len(p)] += int64(m) + 1
		}
		FlushUpdate(p, tw, home)
		if !Equal(tw, p) {
			return false
		}
		return FlushUpdate(p, tw, home) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Outgoing and Changed agree on the diff size.
func TestOutgoingMatchesChanged(t *testing.T) {
	f := func(vals []int64, muts []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		p := make([]int64, len(vals))
		copy(p, vals)
		tw := Twin(p)
		home := Twin(p)
		for i, m := range muts {
			p[i%len(p)] += int64(m) + 1
		}
		c := Changed(p, tw)
		return Outgoing(p, tw, home) == c && Equal(home, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRangeVariants(t *testing.T) {
	home := make([]int64, 16)
	p := make([]int64, 16)
	tw := Twin(p)
	p[3] = 1
	p[9] = 2

	n, lo, hi := FlushUpdateRange(p, tw, home)
	if n != 2 || lo != 3 || hi != 9 {
		t.Errorf("FlushUpdateRange = (%d,%d,%d), want (2,3,9)", n, lo, hi)
	}
	if home[3] != 1 || home[9] != 2 || tw[3] != 1 || tw[9] != 2 {
		t.Error("FlushUpdateRange did not apply to home and twin")
	}
	// Nothing left to flush: empty span.
	if n, lo, hi := FlushUpdateRange(p, tw, home); n != 0 || lo != -1 || hi != -1 {
		t.Errorf("clean FlushUpdateRange = (%d,%d,%d), want (0,-1,-1)", n, lo, hi)
	}

	home2 := make([]int64, 16)
	p2 := make([]int64, 16)
	tw2 := Twin(p2)
	p2[15] = 5
	n, lo, hi = OutgoingRange(p2, tw2, home2)
	if n != 1 || lo != 15 || hi != 15 {
		t.Errorf("OutgoingRange = (%d,%d,%d), want (1,15,15)", n, lo, hi)
	}
	if home2[15] != 5 {
		t.Error("OutgoingRange did not apply to home")
	}
	if tw2[15] != 0 {
		t.Error("OutgoingRange modified the twin")
	}
}

func TestIncomingWriteWriteOverlap(t *testing.T) {
	// Write-write overlap resolution: when a remote write (already at
	// the home) and an unreleased local write collide on a word, the
	// local write must survive in the working page — release order
	// makes it the last writer, flushed at this node's next release —
	// while the twin adopts the remote value so the flush recognizes
	// the word as locally modified.
	cases := []struct {
		name                    string
		working, twin, incoming []int64
		wantWorking, wantTwin   []int64
		wantN                   int
	}{
		{
			name:    "no changes",
			working: page(1, 2), twin: page(1, 2), incoming: page(1, 2),
			wantWorking: page(1, 2), wantTwin: page(1, 2), wantN: 0,
		},
		{
			name:    "remote only",
			working: page(1, 2), twin: page(1, 2), incoming: page(1, 9),
			wantWorking: page(1, 9), wantTwin: page(1, 9), wantN: 1,
		},
		{
			name:    "local only",
			working: page(5, 2), twin: page(1, 2), incoming: page(1, 2),
			wantWorking: page(5, 2), wantTwin: page(1, 2), wantN: 0,
		},
		{
			name:    "overlap keeps local write",
			working: page(5, 2), twin: page(1, 2), incoming: page(9, 2),
			wantWorking: page(5, 2), wantTwin: page(9, 2), wantN: 1,
		},
		{
			name:    "overlap where both wrote the same value",
			working: page(9, 2), twin: page(1, 2), incoming: page(9, 2),
			wantWorking: page(9, 2), wantTwin: page(9, 2), wantN: 1,
		},
		{
			name:    "mixed words",
			working: page(5, 2, 3, 40), twin: page(1, 2, 3, 4), incoming: page(9, 2, 33, 4),
			wantWorking: page(5, 2, 33, 40), wantTwin: page(9, 2, 33, 4), wantN: 2,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n := Incoming(tc.working, tc.twin, tc.incoming)
			if n != tc.wantN {
				t.Errorf("Incoming = %d, want %d", n, tc.wantN)
			}
			if !Equal(tc.working, tc.wantWorking) {
				t.Errorf("working = %v, want %v", tc.working, tc.wantWorking)
			}
			if !Equal(tc.twin, tc.wantTwin) {
				t.Errorf("twin = %v, want %v", tc.twin, tc.wantTwin)
			}
		})
	}
}

func TestIncomingOverlapLastWriterWins(t *testing.T) {
	// End-to-end ordering check for the overlap rule: home already has
	// the remote value; after the incoming diff, this node's release
	// must flush its local write over it (release-order last writer),
	// and a second incoming diff elsewhere must then pick it up.
	home := page(9) // remote write, flushed first
	p := page(5)    // local unreleased write
	tw := page(1)   // both diverged from the original 1

	Incoming(p, tw, home)
	if p[0] != 5 {
		t.Fatalf("local write lost at incoming diff: %v", p)
	}
	if n := FlushUpdate(p, tw, home); n != 1 {
		t.Fatalf("release flushed %d words, want 1", n)
	}
	if home[0] != 5 {
		t.Fatalf("home = %v, want the local (release-order last) write 5", home)
	}
}

func TestIncomingClobberDefect(t *testing.T) {
	// The injected historical defect must restore the old behavior —
	// remote value applied unconditionally — or the model checker's
	// defect-reintroduction test would validate nothing.
	SetClobberIncomingForTest(true)
	defer SetClobberIncomingForTest(false)
	p, tw, home := page(5), page(1), page(9)
	Incoming(p, tw, home)
	if p[0] != 9 {
		t.Fatalf("defect injected but local write survived: %v", p)
	}
}

// TestAppendRuns checks the run encoder against a word-by-word
// reference: the runs, applied to a copy of the twin, give the page;
// they are maximal, ascending, cover no unchanged word, and the
// reported span is the first and last changed offset.
func TestAppendRuns(t *testing.T) {
	const words = 64
	rng := rand.New(rand.NewSource(7))
	random := func(density int) func(i int) bool {
		var mask [words]bool
		for i := range mask {
			mask[i] = rng.Intn(100) < density
		}
		return func(i int) bool { return mask[i] }
	}
	cases := []struct {
		name    string
		changed func(i int) bool
	}{
		{"empty", func(int) bool { return false }},
		{"single word", func(i int) bool { return i == 17 }},
		{"first word", func(i int) bool { return i == 0 }},
		{"whole page", func(int) bool { return true }},
		{"alternating words", func(i int) bool { return i%2 == 1 }},
		{"run ending at the last word", func(i int) bool { return i >= words-5 }},
		{"two runs one word apart", func(i int) bool { return i != 30 && i >= 20 && i < 40 }},
		{"random sparse", random(5)},
		{"random half", random(50)},
		{"random dense", random(95)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twin := make([]int64, words)
			for i := range twin {
				twin[i] = rng.Int63()
			}
			pg := Twin(twin)
			wantLo, wantHi, wantN := -1, -1, 0
			for i := range pg {
				if tc.changed(i) {
					pg[i] = twin[i] + 1 + int64(i)
					if wantLo < 0 {
						wantLo = i
					}
					wantHi = i
					wantN++
				}
			}
			// Appending after existing runs must leave them alone and
			// never extend the last of them.
			offs, ws, lo, hi := AppendRuns([]int32{0, 1}, []int64{-1}, pg, twin)
			if offs[0] != 0 || offs[1] != 1 || ws[0] != -1 {
				t.Fatalf("prefix rewritten: offs %v words[0] %d", offs[:2], ws[0])
			}
			offs, ws = offs[2:], ws[1:]
			if lo != wantLo || hi != wantHi || len(ws) != wantN {
				t.Errorf("span (%d,%d) with %d words, want (%d,%d) with %d", lo, hi, len(ws), wantLo, wantHi, wantN)
			}
			if len(offs)%2 != 0 {
				t.Fatalf("odd run list %v", offs)
			}
			got := Twin(twin)
			at, prevEnd := 0, -1
			for i := 0; i < len(offs); i += 2 {
				start, count := int(offs[i]), int(offs[i+1])
				if count <= 0 || start <= prevEnd {
					t.Fatalf("run (%d,%d) after a run ending at %d: runs must be ascending, non-empty and not adjacent", start, count, prevEnd-1)
				}
				for k := 0; k < count; k++ {
					if !tc.changed(start + k) {
						t.Errorf("run (%d,%d) covers unchanged word %d", start, count, start+k)
					}
				}
				copy(got[start:start+count], ws[at:at+count])
				at += count
				prevEnd = start + count
			}
			if at != len(ws) {
				t.Errorf("runs cover %d words, payload has %d", at, len(ws))
			}
			if !Equal(got, pg) {
				t.Error("twin + runs != page")
			}
			// ApplyRuns is the same walk: the twin it updates leaves a
			// second scan of the page nothing to send.
			ApplyRuns(twin, offs, ws)
			if again, _, _, _ := AppendRuns(nil, nil, pg, twin); !Equal(twin, pg) || len(again) != 0 {
				t.Errorf("ApplyRuns left the twin differing from the page in runs %v", again)
			}
		})
	}
}
