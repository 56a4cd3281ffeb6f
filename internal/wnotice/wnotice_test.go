package wnotice

import (
	"sort"
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
