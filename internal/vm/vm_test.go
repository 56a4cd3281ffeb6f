package vm

import (
	"testing"

	"cashmere/internal/directory"
)

func TestTablePermissions(t *testing.T) {
	tab := NewTable(8)
	if tab.Pages() != 8 {
		t.Errorf("Pages = %d", tab.Pages())
	}
	if tab.Get(3) != directory.Invalid {
		t.Error("new table not Invalid")
	}
	if tab.CanRead(3) || tab.CanWrite(3) {
		t.Error("invalid page readable/writable")
	}
	tab.Set(3, directory.ReadOnly)
	if !tab.CanRead(3) {
		t.Error("RO page not readable")
	}
	if tab.CanWrite(3) {
		t.Error("RO page writable")
	}
	tab.Set(3, directory.ReadWrite)
	if !tab.CanRead(3) || !tab.CanWrite(3) {
		t.Error("RW page not accessible")
	}
	tab.Set(3, directory.Invalid)
	if tab.CanRead(3) {
		t.Error("invalidated page still readable")
	}
}

func TestNodeLoosest(t *testing.T) {
	n := NewNode(4, 4)
	if n.Procs() != 4 {
		t.Errorf("Procs = %d", n.Procs())
	}
	if n.Loosest(0) != directory.Invalid {
		t.Error("empty node loosest != Invalid")
	}
	n.Proc(1).Set(0, directory.ReadOnly)
	if n.Loosest(0) != directory.ReadOnly {
		t.Errorf("loosest = %v, want ro", n.Loosest(0))
	}
	n.Proc(3).Set(0, directory.ReadWrite)
	if n.Loosest(0) != directory.ReadWrite {
		t.Errorf("loosest = %v, want rw", n.Loosest(0))
	}
}

func TestNodeWritersAndMapped(t *testing.T) {
	n := NewNode(4, 2)
	n.Proc(0).Set(1, directory.ReadOnly)
	n.Proc(2).Set(1, directory.ReadWrite)
	n.Proc(3).Set(1, directory.ReadWrite)

	w := n.Writers(1, nil)
	if len(w) != 2 || w[0] != 2 || w[1] != 3 {
		t.Errorf("Writers = %v, want [2 3]", w)
	}
	m := n.Mapped(1, nil)
	if len(m) != 3 || m[0] != 0 || m[1] != 2 || m[2] != 3 {
		t.Errorf("Mapped = %v, want [0 2 3]", m)
	}
	// Append semantics reuse the caller's buffer.
	buf := make([]int, 0, 4)
	w2 := n.Writers(1, buf)
	if len(w2) != 2 {
		t.Errorf("Writers with buf = %v", w2)
	}
	if n.Writers(0, nil) != nil {
		t.Error("Writers of untouched page not empty")
	}
}
