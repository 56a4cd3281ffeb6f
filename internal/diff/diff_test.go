package diff

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func page(vals ...int64) []int64 {
	p := make([]int64, len(vals))
	copy(p, vals)
	return p
}

// flushRuns is mprun's flush-update: the page's runs against the twin
// go to home (the handler's ApplyRuns) and into the twin, so a second
// flush sends only newer words. It returns the words sent.
func flushRuns(page, twin, home []int64) int {
	offs, words, _, _ := AppendRuns(nil, nil, page, twin)
	ApplyRuns(home, offs, words)
	ApplyRuns(twin, offs, words)
	return len(words)
}

func TestTwinIsIndependentCopy(t *testing.T) {
	p := page(1, 2, 3)
	tw := Twin(p)
	if !slices.Equal(p, tw) {
		t.Fatal("twin differs from page")
	}
	p[1] = 99
	if tw[1] != 2 {
		t.Error("twin aliases page storage")
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
	if !slices.Equal(home, want) {
		t.Errorf("home = %v, want %v", home, want)
	}
	// Outgoing leaves the twin untouched.
	if tw[0] != 1 || tw[2] != 3 {
		t.Errorf("Outgoing modified the twin: %v", tw)
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
	if !slices.Equal(p, want) {
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
	if _, words, _, _ := AppendRuns(nil, nil, p, tw); len(words) != 1 {
		t.Errorf("outgoing diff after incoming diff = %d words, want 1", len(words))
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

	flushRuns(pa, ta, home) // A releases
	Incoming(pb, tb, home)  // B acquires and fetches
	want := page(11, 22)
	if !slices.Equal(pb, want) {
		t.Errorf("B's page = %v, want %v", pb, want)
	}

	flushRuns(pb, tb, home) // B releases
	Incoming(pa, ta, home)  // A fetches
	if !slices.Equal(pa, want) {
		t.Errorf("A's page = %v, want %v", pa, want)
	}
	if !slices.Equal(home, want) {
		t.Errorf("home = %v, want %v", home, want)
	}
}

func TestRefresh(t *testing.T) {
	src := page(7, 8, 9)
	dst := page(0, 8, 0)
	if n := Refresh(dst, src); n != 2 {
		t.Errorf("Refresh stored %d words, want 2", n)
	}
	if !slices.Equal(dst, src) {
		t.Errorf("Refresh: dst = %v", dst)
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
		flushRuns(remote, rtwin, home)
		Incoming(local, ltwin, home)
		flushRuns(local, ltwin, home)

		return slices.Equal(local, want) && slices.Equal(home, want) && slices.Equal(ltwin, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Outgoing applies exactly the words at which page and twin
// differ.
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
		changed := 0
		for i := range tw {
			if p[i] != tw[i] {
				changed++
			}
		}
		return Outgoing(p, tw, home) == changed && slices.Equal(home, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
			// MergeRuns is Incoming over runs: one whole-page run, or the
			// runs of the words incoming changes, must merge the same.
			whole := []int32{0, int32(len(tc.incoming))}
			changed, words, _, _ := AppendRuns(nil, nil, tc.incoming, tc.twin)
			merges := [][]int64{Twin(tc.working), Twin(tc.twin), Twin(tc.working), Twin(tc.twin)}
			n := Incoming(tc.working, tc.twin, tc.incoming)
			if n != tc.wantN {
				t.Errorf("Incoming = %d, want %d", n, tc.wantN)
			}
			if !slices.Equal(tc.working, tc.wantWorking) {
				t.Errorf("working = %v, want %v", tc.working, tc.wantWorking)
			}
			if !slices.Equal(tc.twin, tc.wantTwin) {
				t.Errorf("twin = %v, want %v", tc.twin, tc.wantTwin)
			}
			MergeRuns(merges[0], merges[1], whole, tc.incoming)
			MergeRuns(merges[2], merges[3], changed, words)
			for k, runs := range [][]int32{whole, changed} {
				if w, tw := merges[2*k], merges[2*k+1]; !slices.Equal(w, tc.wantWorking) || !slices.Equal(tw, tc.wantTwin) {
					t.Errorf("MergeRuns over runs %v: working %v, twin %v, want %v, %v", runs, w, tw, tc.wantWorking, tc.wantTwin)
				}
			}
			// With no twin there are no local writes to keep: it applies
			// the runs.
			plain := Twin(tc.twin)
			if MergeRuns(plain, nil, whole, tc.incoming); !slices.Equal(plain, tc.incoming) {
				t.Errorf("MergeRuns with no twin = %v, want %v", plain, tc.incoming)
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
	if n := flushRuns(p, tw, home); n != 1 {
		t.Fatalf("release flushed %d words, want 1", n)
	}
	if home[0] != 5 {
		t.Fatalf("home = %v, want the local (release-order last) write 5", home)
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
			if n := RunsLen(words, offs); n != len(ws) {
				t.Errorf("RunsLen(%v) = %d, want the %d words AppendRuns sent", offs, n, len(ws))
			}
			if !slices.Equal(got, pg) {
				t.Error("twin + runs != page")
			}
			// ApplyRuns is the same walk: the twin it updates leaves a
			// second scan of the page nothing to send.
			ApplyRuns(twin, offs, ws)
			if again, _, _, _ := AppendRuns(nil, nil, pg, twin); !slices.Equal(twin, pg) || len(again) != 0 {
				t.Errorf("ApplyRuns left the twin differing from the page in runs %v", again)
			}
		})
	}
	// RunsLen refuses what AppendRuns never sends.
	for _, bad := range []struct {
		name string
		offs []int32
	}{
		{"overlapping", []int32{0, 2, 1, 2}},
		{"backwards", []int32{8, 2, 0, 2}},
		{"half a run", []int32{0, 1, 2}},
		{"past the end", []int32{words - 1, 2}},
		{"negative start", []int32{-1, 1}},
		{"empty run", []int32{3, 0}},
	} {
		if n := RunsLen(words, bad.offs); n != -1 {
			t.Errorf("RunsLen of %s runs %v = %d, want -1", bad.name, bad.offs, n)
		}
	}
}
