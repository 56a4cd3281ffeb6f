// Package vm provides the software page tables of the simulator.
//
// The real Cashmere-2L tracks shared accesses with virtual-memory
// protection: pages are mprotect-ed and SIGSEGV delivery enters the
// protocol. A Go process cannot cede page-fault handling to a library
// (the runtime owns signals and memory mappings), so the simulator keeps
// an explicit per-processor permission table and checks it inline on
// every shared access — the same detection points, with the paper's
// fault (72 us) and mprotect (55 us) costs charged by the protocol
// engine when the tables are consulted and changed.
//
// Tables are plain memory: the simulator runs one processor at a time,
// and protocol code that changes another processor's mappings
// (exclusive-mode breaks, shootdowns) runs while that processor is
// stopped, so its next access sees the change.
package vm

import "cashmere/internal/directory"

// Table is one processor's page permission table.
type Table struct {
	perms []directory.Perm
}

// NewTable returns a table of pages entries, all Invalid.
func NewTable(pages int) *Table {
	return &Table{perms: make([]directory.Perm, pages)}
}

// Pages returns the number of pages the table covers.
func (t *Table) Pages() int { return len(t.perms) }

// Get returns the permission for page.
func (t *Table) Get(page int) directory.Perm { return t.perms[page] }

// Set changes the permission for page (the simulator's mprotect).
func (t *Table) Set(page int, p directory.Perm) { t.perms[page] = p }

// CanRead reports whether a read access to page would succeed.
func (t *Table) CanRead(page int) bool { return t.perms[page] >= directory.ReadOnly }

// CanWrite reports whether a write access to page would succeed.
func (t *Table) CanWrite(page int) bool { return t.perms[page] >= directory.ReadWrite }

// Node groups the tables of one SMP node's processors and answers the
// second-level directory's mapping queries.
type Node struct {
	tables []*Table
}

// NewNode returns tables for procs processors over pages pages.
func NewNode(procs, pages int) *Node {
	n := &Node{tables: make([]*Table, procs)}
	for i := range n.tables {
		n.tables[i] = NewTable(pages)
	}
	return n
}

// Procs returns the number of processors on the node.
func (n *Node) Procs() int { return len(n.tables) }

// Proc returns processor i's table.
func (n *Node) Proc(i int) *Table { return n.tables[i] }

// Loosest returns the loosest permission any processor on the node
// holds for page — the value recorded in the node's global directory
// word. It short-circuits at ReadWrite, the loosest permission there
// is.
func (n *Node) Loosest(page int) directory.Perm {
	loosest := directory.Invalid
	for _, t := range n.tables {
		if p := t.Get(page); p > loosest {
			if p == directory.ReadWrite {
				return p
			}
			loosest = p
		}
	}
	return loosest
}

// HasWriters reports whether any processor on the node holds a
// read-write mapping for page, without building the list Writers
// returns.
func (n *Node) HasWriters(page int) bool {
	for _, t := range n.tables {
		if t.Get(page) == directory.ReadWrite {
			return true
		}
	}
	return false
}

// Writers appends to buf the processors holding read-write mappings for
// page and returns the extended slice; callers may reuse a scratch
// buffer across calls.
func (n *Node) Writers(page int, buf []int) []int {
	for i, t := range n.tables {
		if t.Get(page) == directory.ReadWrite {
			buf = append(buf, i)
		}
	}
	return buf
}

// Mapped appends to buf the processors holding any valid mapping for
// page and returns the extended slice; callers may reuse a scratch
// buffer across calls.
func (n *Node) Mapped(page int, buf []int) []int {
	for i, t := range n.tables {
		if t.Get(page) != directory.Invalid {
			buf = append(buf, i)
		}
	}
	return buf
}
