package wnotice

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestGlobalPostDrain(t *testing.T) {
	g := NewGlobal(4)
	g.Post(0, 10)
	g.Post(2, 20)
	g.Post(0, 11)
	if got := g.Pending(); got != 3 {
		t.Errorf("Pending = %d, want 3", got)
	}
	got := g.Drain()
	sort.Ints(got)
	want := []int{10, 11, 20}
	if len(got) != len(want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain = %v, want %v", got, want)
		}
	}
	if g.Pending() != 0 {
		t.Errorf("Pending after drain = %d", g.Pending())
	}
	if out := g.Drain(); len(out) != 0 {
		t.Errorf("second Drain = %v", out)
	}
}

func TestGlobalPostingOrder(t *testing.T) {
	g := NewGlobal(2)
	for i := 0; i < 10; i++ {
		g.Post(i%2, i)
	}
	got := g.Drain()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("posting order violated: %v", got)
		}
	}
}

func TestGlobalConcurrentSenders(t *testing.T) {
	const senders = 8
	const per = 500
	g := NewGlobal(senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Post(s, s*per+i)
			}
		}(s)
	}
	wg.Wait()
	got := g.Drain()
	if len(got) != senders*per {
		t.Fatalf("drained %d notices, want %d", len(got), senders*per)
	}
	seen := make(map[int]bool, len(got))
	for _, p := range got {
		if seen[p] {
			t.Fatalf("duplicate notice %d", p)
		}
		seen[p] = true
	}
}

func TestPerProcDedup(t *testing.T) {
	p := NewPerProc(128)
	if !p.Add(5) {
		t.Error("first Add returned false")
	}
	if p.Add(5) {
		t.Error("duplicate Add returned true")
	}
	if !p.Add(64) {
		t.Error("Add in second bitmap word returned false")
	}
	if !p.Has(5) || !p.Has(64) || p.Has(6) {
		t.Error("Has() wrong")
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	got := p.Flush()
	if len(got) != 2 || got[0] != 5 || got[1] != 64 {
		t.Errorf("Flush = %v, want [5 64]", got)
	}
	if p.Len() != 0 || p.Has(5) {
		t.Error("Flush did not clear state")
	}
	// After a flush the same page may be posted again.
	if !p.Add(5) {
		t.Error("Add after Flush returned false")
	}
}

func TestPerProcFlushEmpty(t *testing.T) {
	p := NewPerProc(10)
	if got := p.Flush(); got != nil {
		t.Errorf("Flush of empty list = %v", got)
	}
}

func TestPerProcConcurrent(t *testing.T) {
	p := NewPerProc(1024)
	var wg sync.WaitGroup
	var added sync.Map
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1024; i++ {
				if p.Add(i) {
					if _, loaded := added.LoadOrStore(i, w); loaded {
						t.Errorf("page %d newly-added twice", i)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	got := p.Flush()
	if len(got) != 1024 {
		t.Errorf("flushed %d pages, want 1024", len(got))
	}
}

func TestPerProcProperty(t *testing.T) {
	// Flushing always yields exactly the set of distinct pages added
	// since the previous flush.
	f := func(pages []uint8) bool {
		p := NewPerProc(256)
		want := map[int]bool{}
		for _, pg := range pages {
			p.Add(int(pg))
			want[int(pg)] = true
		}
		got := p.Flush()
		if len(got) != len(want) {
			return false
		}
		for _, pg := range got {
			if !want[pg] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDrainIsAtomicSnapshot(t *testing.T) {
	// A poster emits causally-ordered pairs: notice 2k from sender 0,
	// then notice 2k+1 from sender 1. A concurrent drainer must never
	// observe the second of a pair without having observed the first —
	// that would mean the drain split an in-flight post sequence,
	// collecting a causally-later notice while leaving its predecessor
	// queued.
	const pairs = 20000
	g := NewGlobal(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < pairs; k++ {
			g.Post(0, 2*k)
			g.Post(1, 2*k+1)
		}
	}()

	seen := make([]bool, 2*pairs)
	record := func(batch []int) {
		for _, page := range batch {
			if page%2 == 1 && !seen[page-1] {
				t.Fatalf("drain returned notice %d before its causal predecessor %d", page, page-1)
			}
			seen[page] = true
		}
	}
	for {
		select {
		case <-done:
			record(g.Drain())
			for page, ok := range seen {
				if !ok {
					t.Fatalf("notice %d lost", page)
				}
			}
			return
		default:
			record(g.Drain())
		}
	}
}

func TestSnapshotIsAtomic(t *testing.T) {
	// Same causal-pair discipline as TestDrainIsAtomicSnapshot, checked
	// on the non-draining read side: notice 2k is posted strictly before
	// 2k+1, so any single Snapshot containing 2k+1 must also contain 2k.
	const pairs = 10000
	g := NewGlobal(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < pairs; k++ {
			g.Post(0, 2*k)
			g.Post(1, 2*k+1)
		}
	}()
	check := func() {
		snap := g.Snapshot()
		have := make(map[int]bool, len(snap))
		for _, page := range snap {
			have[page] = true
		}
		for _, page := range snap {
			if page%2 == 1 && !have[page-1] {
				t.Fatalf("snapshot holds notice %d but not its causal predecessor %d", page, page-1)
			}
		}
	}
	for {
		select {
		case <-done:
			check()
			if n := g.Pending(); n != 2*pairs {
				t.Fatalf("Pending = %d after all posts, want %d", n, 2*pairs)
			}
			return
		default:
			check()
		}
	}
}

// TestHas checks that a page reads as queued from its post until the
// drain that takes it.
func TestHas(t *testing.T) {
	g := NewGlobal(3)
	g.Post(2, 7)
	g.Post(0, 4)
	for page, want := range map[int]bool{4: true, 7: true, 5: false} {
		if got := g.Has(page); got != want {
			t.Errorf("Has(%d) = %v, want %v", page, got, want)
		}
	}
	g.Drain()
	if g.Has(7) {
		t.Error("Has(7) after Drain = true")
	}
}
